package client

import (
	"time"

	"spritefs/internal/fscache"
	"spritefs/internal/metrics"
	"spritefs/internal/vm"
)

// RegisterMetrics registers the counters of the workstations in
// *clients (cache, VM, write-sharing pass-through, omniscient staleness
// accounting and crash recovery) into the central registry: one column
// per counter over the population client="<id>", read through the live
// slice, so workstations added later (replay brings them up at their
// first record) join every column. The cache families use the
// spritefs_cache prefix shared by every client cache, so cluster-wide
// sums are a one-call projection.
func RegisterMetrics(r *metrics.Registry, clients *[]*Client) {
	at := func(i int) *Client { return (*clients)[i] }
	p := &metrics.Population{
		Key: "client",
		Len: func() int { return len(*clients) },
		ID:  func(i int) int64 { return int64(at(i).cfg.ID) },
	}
	fscache.RegisterMetrics(r, "spritefs_cache", p, func(i int) *fscache.Cache { return at(i).Cache })
	vm.RegisterMetrics(r, p, func(i int) *vm.System { return at(i).VM })

	ctr := func(name, unit, help string, v func(c *Client) int64) {
		r.IntColumn(metrics.Desc{Name: name, Unit: unit, Help: help, Kind: metrics.Counter},
			p, nil, func(i int) int64 { return v(at(i)) })
	}
	ctr("spritefs_client_shared_read_bytes_total", "bytes",
		"Bytes read through the server because the file was write-shared and uncacheable (Table 5 shared row).",
		func(c *Client) int64 { return c.sharedReadBytes })
	ctr("spritefs_client_shared_write_bytes_total", "bytes",
		"Bytes written through the server for uncacheable write-shared files.",
		func(c *Client) int64 { return c.sharedWriteBytes })
	ctr("spritefs_client_dir_read_bytes_total", "bytes",
		"Directory bytes read through the server (directories are never client-cached in Sprite).",
		func(c *Client) int64 { return c.dirReadBytes })
	ctr("spritefs_client_stale_reads_total", "reads",
		"Reads that returned stale data under the polling scheme, counted omnisciently against true versions (Section 8 what-if).",
		func(c *Client) int64 { return c.staleReads })
	ctr("spritefs_client_stale_bytes_total", "bytes",
		"Bytes of stale data those reads served.", func(c *Client) int64 { return c.staleBytes })
	ctr("spritefs_client_poll_rpcs_total", "ops",
		"Version-check RPCs issued by the polling consistency scheme.", func(c *Client) int64 { return c.pollRPCs })
	ctr("spritefs_client_writeback_rpc_bytes_total", "bytes",
		"Bytes this client shipped to servers via WriteBack RPCs — the client side of the conservation invariant.",
		func(c *Client) int64 { return c.bytesWrittenBack })

	ctr("spritefs_client_recoveries_total", "runs",
		"Completed runs of the server-recovery protocol.", func(c *Client) int64 { return c.rec.Recoveries })
	ctr("spritefs_client_reopened_files_total", "files",
		"Per-file re-registrations sent to restarted servers.", func(c *Client) int64 { return c.rec.ReopenedFiles })
	ctr("spritefs_client_reopened_handles_total", "handles",
		"Open handles covered by those re-registrations (the reopen storm).", func(c *Client) int64 { return c.rec.ReopenedHandles })
	ctr("spritefs_client_replayed_bytes_total", "bytes",
		"Dirty delayed-write bytes replayed to restarted servers.", func(c *Client) int64 { return c.rec.ReplayedBytes })
	ctr("spritefs_client_recovery_retries_total", "ops",
		"Backoff retries against servers that were still down.", func(c *Client) int64 { return c.rec.Retries })
	ctr("spritefs_client_recovery_gave_up_total", "ops",
		"Recovery attempts abandoned after the retry limit.", func(c *Client) int64 { return c.rec.GaveUp })
	ctr("spritefs_client_crashes_total", "crashes",
		"Times this workstation crashed (fault injection).", func(c *Client) int64 { return c.rec.Crashes })
	ctr("spritefs_client_lost_dirty_bytes_total", "bytes",
		"Dirty cache bytes destroyed by those crashes — the delayed-write exposure Section 8.2 quantifies.",
		func(c *Client) int64 { return c.rec.LostDirtyBytes })
	r.SecondsColumn(metrics.Desc{Name: "spritefs_client_max_lost_dirty_age_seconds",
		Help: "Age of the oldest dirty byte a crash destroyed; bounded by the 30-second cleaning delay when the cleaner is healthy.",
		Kind: metrics.Gauge},
		p, nil, func(i int) time.Duration { return at(i).rec.MaxLostDirtyAge })
}
