package server

import (
	"time"

	"spritefs/internal/fscache"
	"spritefs/internal/metrics"
)

// RegisterMetrics registers the servers' consistency-action counters
// (Table 10), name-space bookkeeping, crash/recovery counters and — for
// the servers with storage attached — the server cache and disk
// counters: one column per counter over the population server="<id>".
func RegisterMetrics(r *metrics.Registry, servers []*Server) {
	p := population(servers)
	ctr := func(name, unit, help string, v func(st *Stats) int64) {
		r.IntColumn(metrics.Desc{Name: name, Unit: unit, Help: help, Kind: metrics.Counter},
			p, nil, func(i int) int64 { return v(&servers[i].st) })
	}
	ctr("spritefs_server_file_opens_total", "ops",
		"Opens of regular files served (Table 10's denominator).", func(st *Stats) int64 { return st.FileOpens })
	ctr("spritefs_server_dir_opens_total", "ops",
		"Opens of directories served.", func(st *Stats) int64 { return st.DirOpens })
	ctr("spritefs_server_creates_total", "ops",
		"Files and directories created.", func(st *Stats) int64 { return st.Creates })
	ctr("spritefs_server_deletes_total", "ops",
		"Files deleted.", func(st *Stats) int64 { return st.Deletes })
	ctr("spritefs_server_truncates_total", "ops",
		"Truncate-to-zero operations (counted as deletes by the lifetime analysis).", func(st *Stats) int64 { return st.Truncates })
	ctr("spritefs_server_recalls_total", "ops",
		"Opens that triggered a dirty-data recall from the last writer (Table 10).", func(st *Stats) int64 { return st.Recalls })
	ctr("spritefs_server_cws_events_total", "ops",
		"Opens that initiated concurrent write-sharing and disabled client caching (Table 10).", func(st *Stats) int64 { return st.CWSEvents })
	ctr("spritefs_server_cacheoff_ops_total", "ops",
		"Reads and writes passed through while a file was uncacheable.", func(st *Stats) int64 { return st.CacheOffOps })
	ctr("spritefs_server_invalidations_total", "ops",
		"Stale-version invalidations instructed to clients at open.", func(st *Stats) int64 { return st.Invalids })
	ctr("spritefs_server_writeback_bytes_total", "bytes",
		"Bytes accepted via WriteBack RPCs — the server side of the conservation invariant the fault harness checks.", func(st *Stats) int64 { return st.WriteBackBytes })
	ctr("spritefs_server_crashes_total", "crashes",
		"Times this server crashed (fault injection).", func(st *Stats) int64 { return st.Crashes })
	ctr("spritefs_server_opens_lost_in_crash_total", "ops",
		"Open registrations discarded with the volatile tables by crashes.", func(st *Stats) int64 { return st.OpensLostInCrash })
	ctr("spritefs_server_recovery_opens_total", "ops",
		"Handle re-registrations served after restarts (the reopen storm).", func(st *Stats) int64 { return st.RecoveryOpens })
	ctr("spritefs_server_recovery_cws_total", "ops",
		"Concurrent write-sharing re-detected during recovery reopens.", func(st *Stats) int64 { return st.RecoveryCWS })
	r.SecondsColumn(metrics.Desc{Name: "spritefs_server_max_recovery_seconds",
		Help: "Longest crash-to-reconsistency interval observed: from crash until the slowest client finished the recovery protocol.",
		Kind: metrics.Gauge},
		p, nil, func(i int) time.Duration { return servers[i].st.MaxRecoveryTime })
	r.IntColumn(metrics.Desc{Name: "spritefs_server_epoch", Unit: "restarts",
		Help: "Restart generation; clients compare it against the epoch they last saw to detect crashes.",
		Kind: metrics.Gauge},
		p, nil, func(i int) int64 { return int64(servers[i].epoch) })
	r.IntColumn(metrics.Desc{Name: "spritefs_server_files", Unit: "files",
		Help: "Files currently present in the server's name space.",
		Kind: metrics.Gauge},
		p, nil, func(i int) int64 { return int64(servers[i].files.n) })

	var stored []*Server
	for _, s := range servers {
		if s.Store != nil {
			stored = append(stored, s)
		}
	}
	if len(stored) > 0 {
		registerStorage(r, stored)
	}
}

// population is the server="<id>" population over a fixed server slice.
func population(servers []*Server) *metrics.Population {
	return &metrics.Population{
		Key: "server",
		Len: func() int { return len(servers) },
		ID:  func(i int) int64 { return int64(servers[i].id) },
	}
}

// registerStorage registers the storage layers' cache/disk counters of
// servers that all have storage, plus their internal block caches under
// the spritefs_server_cache prefix (kept distinct from the client
// spritefs_cache families so projections over client caches never
// double-count server-side blocks).
func registerStorage(r *metrics.Registry, servers []*Server) {
	p := population(servers)
	ctr := func(name, unit, help string, v func(st *StorageStats) int64) {
		r.IntColumn(metrics.Desc{Name: name, Unit: unit, Help: help, Kind: metrics.Counter},
			p, nil, func(i int) int64 { return v(&servers[i].Store.st) })
	}
	ctr("spritefs_server_store_read_blocks_total", "blocks",
		"Client block fetches served by the storage layer.", func(st *StorageStats) int64 { return st.ReadBlocks })
	ctr("spritefs_server_store_read_miss_blocks_total", "blocks",
		"Served fetches that missed the server cache and touched the disk (Table 7's server-cache commentary).", func(st *StorageStats) int64 { return st.ReadMissBlocks })
	ctr("spritefs_server_store_write_blocks_total", "blocks",
		"Writeback blocks accepted into the server cache.", func(st *StorageStats) int64 { return st.WriteBlocks })
	ctr("spritefs_server_store_disk_reads_total", "ops",
		"Disk read operations (~25 ms each in the 1991 model).", func(st *StorageStats) int64 { return st.DiskReads })
	ctr("spritefs_server_store_disk_writes_total", "ops",
		"Disk write operations.", func(st *StorageStats) int64 { return st.DiskWrites })
	ctr("spritefs_server_store_lost_dirty_bytes_total", "bytes",
		"Server-cache bytes that were dirty (not yet on disk) when the server crashed.", func(st *StorageStats) int64 { return st.LostDirtyBytes })
	r.SecondsColumn(metrics.Desc{Name: "spritefs_server_store_disk_busy_seconds",
		Help: "Cumulative disk-busy time.",
		Kind: metrics.Counter},
		p, nil, func(i int) time.Duration { return servers[i].Store.st.DiskBusy })
	r.SecondsColumn(metrics.Desc{Name: "spritefs_server_store_max_lost_dirty_age_seconds",
		Help: "Age of the oldest dirty byte destroyed by a server crash.",
		Kind: metrics.Gauge},
		p, nil, func(i int) time.Duration { return servers[i].Store.st.MaxLostDirtyAge })
	fscache.RegisterMetrics(r, "spritefs_server_cache", p, func(i int) *fscache.Cache { return servers[i].Store.cache })
}
