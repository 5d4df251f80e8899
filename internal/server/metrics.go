package server

import (
	"strconv"

	"spritefs/internal/metrics"
)

// RegisterMetrics registers the server's consistency-action counters
// (Table 10), name-space bookkeeping, crash/recovery counters and — when
// storage is attached — the server cache and disk counters, all labeled
// server="<id>".
func (s *Server) RegisterMetrics(r *metrics.Registry) {
	ls := metrics.Labels{metrics.L("server", strconv.Itoa(int(s.id)))}
	ctr := func(name, unit, help string, v *int64) {
		r.IntVar(metrics.Desc{Name: name, Unit: unit, Help: help, Kind: metrics.Counter}, ls, v)
	}
	ctr("spritefs_server_file_opens_total", "ops",
		"Opens of regular files served (Table 10's denominator).", &s.st.FileOpens)
	ctr("spritefs_server_dir_opens_total", "ops",
		"Opens of directories served.", &s.st.DirOpens)
	ctr("spritefs_server_creates_total", "ops",
		"Files and directories created.", &s.st.Creates)
	ctr("spritefs_server_deletes_total", "ops",
		"Files deleted.", &s.st.Deletes)
	ctr("spritefs_server_truncates_total", "ops",
		"Truncate-to-zero operations (counted as deletes by the lifetime analysis).", &s.st.Truncates)
	ctr("spritefs_server_recalls_total", "ops",
		"Opens that triggered a dirty-data recall from the last writer (Table 10).", &s.st.Recalls)
	ctr("spritefs_server_cws_events_total", "ops",
		"Opens that initiated concurrent write-sharing and disabled client caching (Table 10).", &s.st.CWSEvents)
	ctr("spritefs_server_cacheoff_ops_total", "ops",
		"Reads and writes passed through while a file was uncacheable.", &s.st.CacheOffOps)
	ctr("spritefs_server_invalidations_total", "ops",
		"Stale-version invalidations instructed to clients at open.", &s.st.Invalids)
	ctr("spritefs_server_writeback_bytes_total", "bytes",
		"Bytes accepted via WriteBack RPCs — the server side of the conservation invariant the fault harness checks.", &s.st.WriteBackBytes)
	ctr("spritefs_server_crashes_total", "crashes",
		"Times this server crashed (fault injection).", &s.st.Crashes)
	ctr("spritefs_server_opens_lost_in_crash_total", "ops",
		"Open registrations discarded with the volatile tables by crashes.", &s.st.OpensLostInCrash)
	ctr("spritefs_server_recovery_opens_total", "ops",
		"Handle re-registrations served after restarts (the reopen storm).", &s.st.RecoveryOpens)
	ctr("spritefs_server_recovery_cws_total", "ops",
		"Concurrent write-sharing re-detected during recovery reopens.", &s.st.RecoveryCWS)
	r.SecondsVar(metrics.Desc{Name: "spritefs_server_max_recovery_seconds",
		Help: "Longest crash-to-reconsistency interval observed: from crash until the slowest client finished the recovery protocol.",
		Kind: metrics.Gauge},
		ls, &s.st.MaxRecoveryTime)
	r.Int(metrics.Desc{Name: "spritefs_server_epoch", Unit: "restarts",
		Help: "Restart generation; clients compare it against the epoch they last saw to detect crashes.",
		Kind: metrics.Gauge},
		ls, func() int64 { return int64(s.epoch) })
	r.Int(metrics.Desc{Name: "spritefs_server_files", Unit: "files",
		Help: "Files currently present in the server's name space.",
		Kind: metrics.Gauge},
		ls, func() int64 { return int64(s.files.n) })

	if s.Store != nil {
		s.Store.registerMetrics(r, ls)
	}
}

// registerMetrics registers the storage layer's cache/disk counters plus
// the internal block cache under the spritefs_server_cache prefix (kept
// distinct from the client spritefs_cache families so projections over
// client caches never double-count server-side blocks).
func (st *Storage) registerMetrics(r *metrics.Registry, ls metrics.Labels) {
	ctr := func(name, unit, help string, v *int64) {
		r.IntVar(metrics.Desc{Name: name, Unit: unit, Help: help, Kind: metrics.Counter}, ls, v)
	}
	ctr("spritefs_server_store_read_blocks_total", "blocks",
		"Client block fetches served by the storage layer.", &st.st.ReadBlocks)
	ctr("spritefs_server_store_read_miss_blocks_total", "blocks",
		"Served fetches that missed the server cache and touched the disk (Table 7's server-cache commentary).", &st.st.ReadMissBlocks)
	ctr("spritefs_server_store_write_blocks_total", "blocks",
		"Writeback blocks accepted into the server cache.", &st.st.WriteBlocks)
	ctr("spritefs_server_store_disk_reads_total", "ops",
		"Disk read operations (~25 ms each in the 1991 model).", &st.st.DiskReads)
	ctr("spritefs_server_store_disk_writes_total", "ops",
		"Disk write operations.", &st.st.DiskWrites)
	ctr("spritefs_server_store_lost_dirty_bytes_total", "bytes",
		"Server-cache bytes that were dirty (not yet on disk) when the server crashed.", &st.st.LostDirtyBytes)
	r.SecondsVar(metrics.Desc{Name: "spritefs_server_store_disk_busy_seconds",
		Help: "Cumulative disk-busy time.",
		Kind: metrics.Counter},
		ls, &st.st.DiskBusy)
	r.SecondsVar(metrics.Desc{Name: "spritefs_server_store_max_lost_dirty_age_seconds",
		Help: "Age of the oldest dirty byte destroyed by a server crash.",
		Kind: metrics.Gauge},
		ls, &st.st.MaxLostDirtyAge)
	st.cache.RegisterMetrics(r, "spritefs_server_cache", ls)
}
