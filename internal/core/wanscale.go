package core

import (
	"fmt"
	"strings"

	"spritefs/internal/scale"
	"spritefs/internal/stats"
)

// DefaultWANScaleClients is the hierarchical sweep's community when
// WANScaleOptions.Clients is zero.
const DefaultWANScaleClients = 10000

// WANScaleOptions configures the hierarchical-topology sweep: one fixed
// community spread over a fixed segment count, re-grouped into
// progressively more sites so the sweep isolates what the WAN tier does
// to cache behavior and server load.
type WANScaleOptions struct {
	// Clients is the total community size across all segments (default
	// DefaultWANScaleClients).
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
	Sites int
	SweepRun
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
	segments := opts.Segments
	if segments <= 0 {
		segments = 8
	}
	siteCounts := opts.Sites
	if len(siteCounts) == 0 {
		siteCounts = []int{1, 2, 4, 8}
	}
	sw := newTopologySweep(opts.Clients, DefaultWANScaleClients, opts.Hours, 0.1, opts.Seed)
	cfgs := make([]scale.Config, len(siteCounts))
	for i, sites := range siteCounts {
		if segments%sites != 0 {
			return nil, fmt.Errorf("sites=%d does not divide %d segments", sites, segments)
		}
		cfgs[i] = scale.Config{
			Base:        sw.base,
			Factor:      sw.factor,
			Shards:      segments,
			Sites:       sites,
			LeanMetrics: opts.Lean,
		}
	}
	runs, err := sw.run(cfgs, opts.Sequential, opts.Workers, "sites", siteCounts)
	if err != nil {
		return nil, err
	}
	res := &WANScaleResult{Clients: sw.clients, Segments: segments, Hours: sw.hours}
	for i, r := range runs {
		res.Rows = append(res.Rows, WANScaleRow{Sites: siteCounts[i], SweepRun: r})
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
		f := foldShards(&rep)
		sat.AddRow(
			fmt.Sprintf("%d", row.Sites),
			fmt.Sprintf("%d", r.Segments/row.Sites),
			fmt.Sprintf("%.2f", rep.CacheHit*100),
			fmt.Sprintf("%.2f", rep.OpensPerSec),
			fmt.Sprintf("%.1f", f.maxDisk*100),
			fmt.Sprintf("%d", f.remoteOps),
			fmt.Sprintf("%d", rep.CrossSiteOps),
			fmt.Sprintf("%.2f", rep.WANUtil*100),
			fmt.Sprintf("%.2f", f.latMS),
			fmt.Sprintf("%.2f", f.wanLatMS))
	}
	b.WriteString(sat.String())
	b.WriteString("\n")

	exec := execTable("sites", r.Clients, len(r.Rows),
		func(i int) (int, *SweepRun) { return r.Rows[i].Sites, &r.Rows[i].SweepRun })
	b.WriteString(exec.String())
	b.WriteString(hostMeasured + "; everything\nelse is deterministic. WAN links are also the executor's widest lookahead,\nso deeper hierarchies usually need fewer synchronization rounds per\nsimulated hour.\n")
	return b.String()
}
