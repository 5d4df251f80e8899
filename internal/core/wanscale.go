package core

import (
	"fmt"
	"strings"
	"time"

	"spritefs/internal/scale"
	"spritefs/internal/stats"
	"spritefs/internal/workload"
)

// WANScaleOptions configures the hierarchical-topology sweep: one fixed
// community spread over a fixed segment count, re-grouped into
// progressively more sites so the sweep isolates what the WAN tier does
// to cache behavior and server load.
type WANScaleOptions struct {
	// Clients is the total community size across all segments (default
	// 10000).
	Clients int
	// Segments is the total Ethernet segment count, constant across the
	// sweep (default 8). Every entry of Sites must divide it.
	Segments int
	// Sites lists the site counts to sweep (default 1, 2, 4, 8; 1 = the
	// flat topology baseline).
	Sites []int
	// Hours of simulated time per configuration (default 0.1).
	Hours float64
	// Seed offsets the base community seed.
	Seed int64
	// Sequential forces the sequential executor (the default uses the
	// parallel executor, whose output is byte-identical).
	Sequential bool
	// Workers bounds the parallel executor (0 = GOMAXPROCS).
	Workers int
	// Lean enables scale.Config.LeanMetrics: the engine's registry skips
	// the per-client metric families, which is what makes million-client
	// configurations fit in memory. Reports are unaffected (cache ratios
	// come from the client caches directly).
	Lean bool
}

// WANScaleRow is one site count's measurement.
type WANScaleRow struct {
	Sites  int
	Report scale.Report
	Stats  scale.RunStats
}

// WANScaleResult is the tier-depth sweep.
type WANScaleResult struct {
	Clients  int
	Segments int
	Hours    float64
	Rows     []WANScaleRow
}

// RunWANScaleStudy sweeps site counts over a fixed community and segment
// grid. Site count 1 is the flat single-site topology; larger counts
// regroup the same segments under a priced WAN tier, so differences down
// a column are the tier's doing, not the community's.
func RunWANScaleStudy(opts WANScaleOptions) (*WANScaleResult, error) {
	clients := opts.Clients
	if clients <= 0 {
		clients = 10000
	}
	segments := opts.Segments
	if segments <= 0 {
		segments = 8
	}
	siteCounts := opts.Sites
	if len(siteCounts) == 0 {
		siteCounts = []int{1, 2, 4, 8}
	}
	hours := opts.Hours
	if hours <= 0 {
		hours = 0.1
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 4242
	}
	horizon := time.Duration(hours * float64(time.Hour))

	base := workload.Default(seed)
	factor := float64(clients) / float64(base.NumClients)

	res := &WANScaleResult{Clients: clients, Segments: segments, Hours: hours}
	for _, sites := range siteCounts {
		if segments%sites != 0 {
			return nil, fmt.Errorf("sites=%d does not divide %d segments", sites, segments)
		}
		eng, err := scale.New(scale.Config{
			Base:        base,
			Factor:      factor,
			Shards:      segments,
			Sites:       sites,
			LeanMetrics: opts.Lean,
		})
		if err != nil {
			return nil, fmt.Errorf("sites=%d: %w", sites, err)
		}
		st := eng.Run(scale.RunOptions{
			Horizon:  horizon,
			Parallel: !opts.Sequential && segments > 1,
			Workers:  opts.Workers,
		})
		res.Rows = append(res.Rows, WANScaleRow{Sites: sites, Report: eng.Report(), Stats: st})
	}
	return res, nil
}

// WANScaleTables renders the sweep: cache hit ratio and server load vs
// tier depth, the WAN tier's traffic share, and the executor's wall-clock
// per configuration.
func WANScaleTables(r *WANScaleResult) string {
	var b strings.Builder

	sat := stats.NewTable(
		fmt.Sprintf("Hierarchy vs flat: %d clients over %d segments, %.2fh horizon",
			r.Clients, r.Segments, r.Hours),
		"sites", "segs/site", "hit%", "opens/s", "maxdisk%", "remote-ops", "xsite-ops",
		"wan%", "rlat-ms", "wanlat-ms")
	for _, row := range r.Rows {
		rep := row.Report
		var maxDisk float64
		var remoteOps int64
		var lat, wanLat stats.Welford
		for _, s := range rep.PerShard {
			if s.ServerUtil > maxDisk {
				maxDisk = s.ServerUtil
			}
			remoteOps += s.Remote.OpsIssued
			lat.Merge(s.Remote.Latency)
			wanLat.Merge(s.Remote.WANLatency)
		}
		var latMS, wanLatMS float64
		if lat.N() > 0 {
			latMS = lat.Mean() / 1e6
		}
		if wanLat.N() > 0 {
			wanLatMS = wanLat.Mean() / 1e6
		}
		sat.AddRow(
			fmt.Sprintf("%d", row.Sites),
			fmt.Sprintf("%d", r.Segments/row.Sites),
			fmt.Sprintf("%.2f", rep.CacheHit*100),
			fmt.Sprintf("%.2f", rep.OpensPerSec),
			fmt.Sprintf("%.1f", maxDisk*100),
			fmt.Sprintf("%d", remoteOps),
			fmt.Sprintf("%d", rep.CrossSiteOps),
			fmt.Sprintf("%.2f", rep.WANUtil*100),
			fmt.Sprintf("%.2f", latMS),
			fmt.Sprintf("%.2f", wanLatMS))
	}
	b.WriteString(sat.String())
	b.WriteString("\n")

	exec := stats.NewTable("Executor wall-clock",
		"sites", "workers", "rounds", "null-adv", "rescues", "msgs", "wall")
	for _, row := range r.Rows {
		exec.AddRow(
			fmt.Sprintf("%d", row.Sites),
			fmt.Sprintf("%d", row.Stats.Workers),
			fmt.Sprintf("%d", row.Stats.Exec.Rounds),
			fmt.Sprintf("%d", row.Stats.Exec.NullAdvances),
			fmt.Sprintf("%d", row.Stats.Exec.Rescues),
			fmt.Sprintf("%d", row.Stats.Exec.Routed),
			row.Stats.Wall.Round(time.Millisecond).String())
	}
	b.WriteString(exec.String())
	b.WriteString("\nWall-clock is a host measurement; everything else is deterministic.\nWAN links are also the executor's widest lookahead, so deeper\nhierarchies usually need fewer synchronization rounds per simulated hour.\n")
	return b.String()
}
