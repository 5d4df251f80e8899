package core

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"spritefs/internal/scale"
	"spritefs/internal/stats"
	"spritefs/internal/workload"
)

// DefaultScaleClients is the topology sweep's community when
// ScaleOptions.Clients is zero: twenty-five times the paper's population.
const DefaultScaleClients = 1000

// ScaleOptions configures the topology sweep: one community run once per
// (shards, sites) pair of the cross product of Shards and Sites.
type ScaleOptions struct {
	// Clients is the total community size across all shards (default
	// DefaultScaleClients).
	Clients int
	// Shards lists the Ethernet segment counts to sweep (default 1, 2, 4,
	// 8).
	Shards []int
	// Sites lists the site counts to sweep against every shard count
	// (default 1, the flat topology). Every site count must divide every
	// shard count: a site count regroups the same segments under a priced
	// WAN tier, so differences down a column are the tier's doing.
	Sites []int
	// Hours of simulated time per configuration (default 0.25).
	Hours float64
	// Seed offsets the base community seed.
	Seed int64
	// Workers bounds the executor that runs every multi-shard
	// configuration (0 = GOMAXPROCS; 1 is the sequential schedule, and
	// output is byte-identical at every count).
	Workers int
	// Lean enables scale.Config.LeanMetrics: the engine's registry skips
	// the per-client metric families, which is what makes million-client
	// configurations fit in memory. Reports are unaffected (cache ratios
	// come from the client caches directly).
	Lean bool
}

// ScaleRow is one (shards, sites) configuration's measurement. Report and
// the counts in Stats are simulation results; Stats.Wall, Build and
// HeapBytes are what the configuration cost the host.
type ScaleRow struct {
	Shards, Sites int
	Report        scale.Report
	Stats         scale.RunStats
	Build         time.Duration // wall-clock of scale.New
	// HeapBytes is the heap in use when Run returned, before any
	// collection: the engine, its warm caches and the run's uncollected
	// garbage. The heap is collected before each configuration is built,
	// so a row does not carry the previous row's engine.
	HeapBytes uint64
}

// ScaleResult is the throughput/saturation sweep: the same community run
// as one big segment, progressively sharded and grouped into sites, so the
// table shows where the paper's mechanisms (segment bandwidth, server
// disks, consistency recalls) saturate, how sharding relieves them and
// what a WAN tier does to cache behavior and server load.
type ScaleResult struct {
	Clients int
	Hours   float64
	Rows    []ScaleRow
}

// RunScaleStudy sweeps shard and site counts over a fixed community, shard
// count major. It checks every pair before running any; the parallel
// executor serves every multi-shard configuration.
func RunScaleStudy(opts ScaleOptions) (*ScaleResult, error) {
	shardCounts, siteCounts := opts.Shards, opts.Sites
	if len(shardCounts) == 0 {
		shardCounts = []int{1, 2, 4, 8}
	}
	if len(siteCounts) == 0 {
		siteCounts = []int{1}
	}
	res := &ScaleResult{Clients: opts.Clients, Hours: opts.Hours}
	if res.Clients <= 0 {
		res.Clients = DefaultScaleClients
	}
	if res.Hours <= 0 {
		res.Hours = 0.25
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 4242
	}
	for _, shards := range shardCounts {
		for _, sites := range siteCounts {
			if shards%sites != 0 {
				return nil, fmt.Errorf("sites=%d does not divide shards=%d", sites, shards)
			}
			res.Rows = append(res.Rows, ScaleRow{Shards: shards, Sites: sites})
		}
	}

	base := workload.Default(seed)
	factor := float64(res.Clients) / float64(base.NumClients)
	horizon := time.Duration(res.Hours * float64(time.Hour))
	for i := range res.Rows {
		row := &res.Rows[i]
		runtime.GC() // the previous configuration's engine is not this one's heap
		start := time.Now()
		eng, err := scale.New(scale.Config{
			Base: base, Factor: factor, Shards: row.Shards, Sites: row.Sites, LeanMetrics: opts.Lean,
		})
		if err != nil {
			return nil, fmt.Errorf("shards=%d, sites=%d: %w", row.Shards, row.Sites, err)
		}
		row.Build = time.Since(start)
		row.Stats = eng.Run(scale.RunOptions{
			Horizon:  horizon,
			Parallel: row.Shards > 1,
			Workers:  opts.Workers,
		})
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		row.Report, row.HeapBytes = eng.Report(), ms.HeapAlloc
	}
	return res, nil
}

// shardFolds are the saturation columns folded over a report's shards.
type shardFolds struct {
	maxNet, maxDisk float64 // hottest segment Ethernet and server disk
	remoteOps       int64
	latMS, wanLatMS float64 // mean remote-op latency: all, and cross-site only
}

func foldShards(rep *scale.Report) shardFolds {
	var f shardFolds
	var lat, wanLat stats.Welford
	for _, s := range rep.PerShard {
		f.maxNet = max(f.maxNet, s.NetUtil)
		f.maxDisk = max(f.maxDisk, s.ServerUtil)
		f.remoteOps += s.Remote.OpsIssued
		lat.Merge(s.Remote.Latency)
		wanLat.Merge(s.Remote.WANLatency)
	}
	if lat.N() > 0 {
		f.latMS = lat.Mean() / 1e6
	}
	if wanLat.N() > 0 {
		f.wanLatMS = wanLat.Mean() / 1e6
	}
	return f
}

// ScaleTables renders the sweep: the saturation table (how hot each
// configuration runs the paper's bottlenecks, and the WAN tier's share) and
// the executor table (what each configuration cost the host: ns/event is
// wall-clock per simulated event, the simulator's figure of merit; speedup
// is wall-clock relative to the first row; build is scale.New's
// wall-clock; heap-MB and KB/client are ScaleRow.HeapBytes in all and per
// client).
func ScaleTables(r *ScaleResult) string {
	var b strings.Builder

	sat := stats.NewTable(
		fmt.Sprintf("Throughput vs shards and sites: %d clients, %.2fh horizon", r.Clients, r.Hours),
		"shards", "sites", "hit%", "opens/s", "recalls/h", "maxnet%", "maxdisk%", "router%", "wan%",
		"remote-ops", "xsite-ops", "rlat-ms", "wanlat-ms")
	exec := stats.NewTable("Executor wall-clock",
		"shards", "sites", "workers", "rounds", "null-adv", "rescues", "msgs", "events", "wall", "ns/event",
		"speedup", "build", "heap-MB", "KB/client")
	for _, row := range r.Rows {
		rep, st := row.Report, row.Stats
		f := foldShards(&rep)
		sat.AddRow(
			fmt.Sprintf("%d", row.Shards),
			fmt.Sprintf("%d", row.Sites),
			fmt.Sprintf("%.2f", rep.CacheHit*100),
			fmt.Sprintf("%.2f", rep.OpensPerSec),
			fmt.Sprintf("%.1f", rep.RecallsPerHour),
			fmt.Sprintf("%.1f", f.maxNet*100),
			fmt.Sprintf("%.1f", f.maxDisk*100),
			fmt.Sprintf("%.2f", rep.RouterUtil*100),
			fmt.Sprintf("%.2f", rep.WANUtil*100),
			fmt.Sprintf("%d", f.remoteOps),
			fmt.Sprintf("%d", rep.CrossSiteOps),
			fmt.Sprintf("%.2f", f.latMS),
			fmt.Sprintf("%.2f", f.wanLatMS))
		exec.AddRow(
			fmt.Sprintf("%d", row.Shards),
			fmt.Sprintf("%d", row.Sites),
			fmt.Sprintf("%d", st.Workers),
			fmt.Sprintf("%d", st.Exec.Rounds),
			fmt.Sprintf("%d", st.Exec.NullAdvances),
			fmt.Sprintf("%d", st.Exec.Rescues),
			fmt.Sprintf("%d", st.Exec.Routed),
			fmt.Sprintf("%d", st.Events),
			st.Wall.Round(time.Millisecond).String(),
			fmt.Sprintf("%.0f", float64(st.Wall)/float64(st.Events)),
			fmt.Sprintf("%.2fx", float64(r.Rows[0].Stats.Wall)/float64(st.Wall)),
			fmt.Sprintf("%.2fs", row.Build.Seconds()),
			fmt.Sprintf("%.1f", float64(row.HeapBytes)/(1<<20)),
			fmt.Sprintf("%.2f", float64(row.HeapBytes)/1024/float64(r.Clients)))
	}
	b.WriteString(sat.String())
	b.WriteString("\n")
	b.WriteString(exec.String())
	b.WriteString("\nWall-clock, ns/event, speedup, build (seconds to construct the engine),\n" +
		"heap-MB (heap in use when the run returned, before any collection) and\n" +
		"KB/client (that heap over the clients) are host measurements; everything\n" +
		"else is deterministic. speedup is wall-clock relative to the first row, so\n" +
		"it mixes what sharding buys on any host - smaller per-shard event heaps,\n" +
		"wider channel-clock windows - with what the worker goroutines add on a\n" +
		"multi-core one; docs/PERFORMANCE.md measures the two apart. WAN links are\n" +
		"the executor's widest lookahead, so more sites usually need fewer\n" +
		"synchronization rounds per simulated hour.\n")
	return b.String()
}
