package fscache

import (
	"spritefs/internal/metrics"
	"spritefs/internal/stats"
)

// cacheDescs is the full Desc set for one registration prefix.
type cacheDescs struct {
	writebackBytes metrics.Desc
	deleteSaved    metrics.Desc
	replacedFile   metrics.Desc
	replacedVM     metrics.Desc
	replacementAge metrics.Desc
	cleaned        metrics.Desc
	cleanAge       metrics.Desc
	sizeBytes      metrics.Desc
	dirtyBytes     metrics.Desc
	capacity       metrics.Desc
	ops            [11]metrics.Desc
}

func descsFor(prefix string) *cacheDescs {
	ctr := func(name, unit, help string) metrics.Desc {
		return metrics.Desc{Name: prefix + name, Unit: unit, Help: help, Kind: metrics.Counter}
	}
	gauge := func(name, unit, help string) metrics.Desc {
		return metrics.Desc{Name: prefix + name, Unit: unit, Help: help, Kind: metrics.Gauge}
	}
	d := &cacheDescs{
		writebackBytes: ctr("_writeback_bytes_total", "bytes",
			"Dirty bytes shipped to servers by cleaning (all reasons; Table 6 writeback traffic)."),
		deleteSaved: ctr("_delete_saved_bytes_total", "bytes",
			"Dirty bytes discarded before writeback because the file was deleted or truncated (Table 6 bytes-saved row)."),
		replacedFile: ctr("_replaced_file_total", "blocks",
			"LRU victims replaced to hold another file block (Table 8 file row)."),
		replacedVM: ctr("_replaced_vm_total", "blocks",
			"Cache blocks handed to the virtual memory system (Table 8 VM row)."),
		replacementAge: metrics.Desc{Name: prefix + "_replacement_age_seconds",
			Help: "Time since last reference when a block was replaced (Table 8 age column)."},
		cleaned: ctr("_cleaned_total", "blocks",
			"Dirty blocks written back, by cleaning reason (Table 9 rows)."),
		cleanAge: metrics.Desc{Name: prefix + "_clean_age_seconds",
			Help: "Time since last write when a dirty block was cleaned, by reason (Table 9 age columns)."},
		sizeBytes: gauge("_size_bytes", "bytes",
			"Resident cache size (the Table 4 sampled quantity)."),
		dirtyBytes: gauge("_dirty_bytes", "bytes",
			"Dirty bytes awaiting writeback (the delayed-write exposure the fault study measures)."),
		capacity: gauge("_capacity_blocks", "blocks",
			"Current cache capacity negotiated with the VM system."),
		ops: [11]metrics.Desc{
			ctr("_read_ops_total", "ops", "Block-granularity cache read operations."),
			ctr("_read_misses_total", "ops", "Read operations not satisfied in the cache (Table 6 miss ratio numerator)."),
			ctr("_read_bytes_total", "bytes", "Bytes requested from the cache by applications (Table 5 file-read traffic)."),
			ctr("_read_miss_bytes_total", "bytes", "Bytes fetched to satisfy reads that missed: from servers for a client cache, from disk for a server cache (Table 6 miss traffic)."),
			ctr("_write_ops_total", "ops", "Block-granularity cache write operations."),
			ctr("_write_fetches_total", "ops", "Partial writes of non-resident blocks that forced a fetch (Table 6 write-fetch row)."),
			ctr("_write_bytes_total", "bytes", "Bytes written into the cache by applications (Table 5 file-write traffic)."),
			ctr("_paging_read_ops_total", "ops", "Cache read operations issued by the VM system (code and initialized-data faults)."),
			ctr("_paging_read_misses_total", "ops", "Paging read operations that missed (Table 6 paging row)."),
			ctr("_paging_read_bytes_total", "bytes", "Portion of read bytes that was paging traffic (Table 5 cacheable-paging row)."),
			ctr("_paging_read_miss_bytes_total", "bytes", "Portion of missed bytes that was paging traffic."),
		},
	}
	return d
}

// RegisterMetrics registers every cache counter of a population of caches
// into the central registry under the given family prefix
// ("spritefs_cache" for client caches, "spritefs_server_cache" for the
// server stores' internal caches): one column per counter over p, member
// i being the cache at(i) (p's members label it, e.g. client="7").
// Columns read the live Stats block at snapshot time, so the registry is
// always exactly as current as Stats() and increments stay plain field
// bumps.
//
// The per-category OpStats pair registers twice under a scope label:
// scope="all" counts every access, scope="migrated" the migrated-process
// subset (Table 6's two columns).
func RegisterMetrics(r *metrics.Registry, prefix string, p *metrics.Population, at func(i int) *Cache) {
	d := descsFor(prefix)
	intCol := func(d metrics.Desc, inner metrics.Labels, v func(c *Cache) int64) {
		r.IntColumn(d, p, inner, func(i int) int64 { return v(at(i)) })
	}
	for _, scope := range [...]struct {
		name string
		ops  func(c *Cache) *OpStats
	}{
		{"all", func(c *Cache) *OpStats { return &c.st.All }},
		{"migrated", func(c *Cache) *OpStats { return &c.st.Migrated }},
	} {
		inner := metrics.Labels{metrics.L("scope", scope.name)}
		for i, v := range opCounters {
			intCol(d.ops[i], inner, func(c *Cache) int64 { return v(scope.ops(c)) })
		}
	}

	intCol(d.writebackBytes, nil, func(c *Cache) int64 { return c.st.BytesWrittenBack })
	intCol(d.deleteSaved, nil, func(c *Cache) int64 { return c.st.BytesSavedByDelete })
	intCol(d.replacedFile, nil, func(c *Cache) int64 { return c.st.ReplacedFile })
	intCol(d.replacedVM, nil, func(c *Cache) int64 { return c.st.ReplacedVM })

	r.HistSecondsColumn(d.replacementAge, p, nil, func(i int) stats.Welford { return at(i).st.ReplacementAge })

	for reason := CleanReason(0); reason < NumCleanReasons; reason++ {
		inner := metrics.Labels{metrics.L("reason", reason.String())}
		intCol(d.cleaned, inner, func(c *Cache) int64 { return c.st.Cleaned[reason] })
		r.HistSecondsColumn(d.cleanAge, p, inner, func(i int) stats.Welford { return at(i).st.CleanAge[reason] })
	}

	intCol(d.sizeBytes, nil, (*Cache).SizeBytes)
	intCol(d.dirtyBytes, nil, func(c *Cache) int64 { return c.dirtyBytes })
	intCol(d.capacity, nil, func(c *Cache) int64 { return int64(c.capacity) })
}

// opCounters reads one OpStats counter each, in cacheDescs.ops order.
var opCounters = [11]func(o *OpStats) int64{
	func(o *OpStats) int64 { return o.ReadOps },
	func(o *OpStats) int64 { return o.ReadMisses },
	func(o *OpStats) int64 { return o.BytesRead },
	func(o *OpStats) int64 { return o.BytesReadMissed },
	func(o *OpStats) int64 { return o.WriteOps },
	func(o *OpStats) int64 { return o.WriteFetches },
	func(o *OpStats) int64 { return o.BytesWritten },
	func(o *OpStats) int64 { return o.PagingReadOps },
	func(o *OpStats) int64 { return o.PagingReadMiss },
	func(o *OpStats) int64 { return o.PagingBytesRead },
	func(o *OpStats) int64 { return o.PagingBytesMiss },
}
