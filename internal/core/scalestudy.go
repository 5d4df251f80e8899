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

// DefaultScaleClients is the shard-count sweep's community when
// ScaleOptions.Clients is zero: twenty-five times the paper's population.
const DefaultScaleClients = 1000

// ScaleOptions configures the shard-count sweep.
type ScaleOptions struct {
	// Clients is the total community size across all shards (default
	// DefaultScaleClients).
	Clients int
	// Shards lists the shard counts to sweep (default 1, 2, 4, 8).
	Shards []int
	// Hours of simulated time per configuration (default 0.25).
	Hours float64
	// Seed offsets the base community seed.
	Seed int64
	// Sequential forces the sequential executor even for multi-shard
	// configurations (the default uses the parallel executor, whose
	// output is byte-identical).
	Sequential bool
	// Workers bounds the parallel executor (0 = GOMAXPROCS).
	Workers int
}

// SweepRun is one swept configuration's measurement. Report and the
// counts in Stats are simulation results; Stats.Wall, Build and HeapBytes
// are what the configuration cost the host.
type SweepRun struct {
	Report scale.Report
	Stats  scale.RunStats
	Build  time.Duration // wall-clock of scale.New
	// HeapBytes is the heap in use when Run returned, before any
	// collection: the engine, its warm caches and the run's uncollected
	// garbage. The heap is collected before each configuration is built,
	// so a row does not carry the previous row's engine.
	HeapBytes uint64
}

// ScaleRow is one shard count's measurement.
type ScaleRow struct {
	Shards int
	SweepRun
}

// ScaleResult is the throughput/saturation sweep: the same community run
// as one big segment and progressively sharded, so the table shows where
// the paper's mechanisms (segment bandwidth, server disks, consistency
// recalls) saturate and how sharding relieves them.
type ScaleResult struct {
	Clients int
	Hours   float64
	Rows    []ScaleRow
}

// topologySweep is what the two topology studies share: one community,
// one horizon, and one engine built and run per swept configuration.
type topologySweep struct {
	clients int
	hours   float64
	base    workload.Params
	factor  float64 // clients over the base community's
}

// newTopologySweep resolves the studies' shared defaults; the default
// community size and horizon are each study's own.
func newTopologySweep(clients, defClients int, hours, defHours float64, seed int64) topologySweep {
	if clients <= 0 {
		clients = defClients
	}
	if hours <= 0 {
		hours = defHours
	}
	if seed == 0 {
		seed = 4242
	}
	base := workload.Default(seed)
	return topologySweep{clients: clients, hours: hours, base: base,
		factor: float64(clients) / float64(base.NumClients)}
}

// run builds and runs one engine per configuration, in order. The
// parallel executor (byte-identical to the sequential one) serves every
// multi-shard configuration unless sequential is set. axis and keys name
// the swept value of a configuration that fails to build.
func (s topologySweep) run(cfgs []scale.Config, sequential bool, workers int, axis string, keys []int) ([]SweepRun, error) {
	horizon := time.Duration(s.hours * float64(time.Hour))
	runs := make([]SweepRun, 0, len(cfgs))
	for i, cfg := range cfgs {
		runtime.GC() // the previous configuration's engine is not this one's heap
		start := time.Now()
		eng, err := scale.New(cfg)
		if err != nil {
			return nil, fmt.Errorf("%s=%d: %w", axis, keys[i], err)
		}
		build := time.Since(start)
		st := eng.Run(scale.RunOptions{
			Horizon:  horizon,
			Parallel: !sequential && cfg.Shards > 1,
			Workers:  workers,
		})
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		runs = append(runs, SweepRun{Report: eng.Report(), Stats: st, Build: build, HeapBytes: ms.HeapAlloc})
	}
	return runs, nil
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

// hostMeasured opens both studies' footers: the executor table's columns
// that are properties of the host, not of the simulation.
const hostMeasured = "\nWall-clock, ns/event, speedup, build (seconds to construct the engine),\nheap-MB (heap in use when the run returned, before any collection) and\nKB/client (that heap over the clients) are host measurements"

// execTable renders what each swept configuration of a clients-strong
// community cost the host: row i is keyed by row(i)'s swept value under the
// axis heading, ns/event is wall-clock per simulated event (the simulator's
// figure of merit), speedup is wall-clock relative to the first row, build
// is scale.New's wall-clock, and heap-MB and KB/client are SweepRun.HeapBytes
// in all and per client.
func execTable(axis string, clients, n int, row func(i int) (int, *SweepRun)) *stats.Table {
	t := stats.NewTable("Executor wall-clock",
		axis, "workers", "rounds", "null-adv", "rescues", "msgs", "events", "wall", "ns/event", "speedup",
		"build", "heap-MB", "KB/client")
	_, first := row(0)
	for i := 0; i < n; i++ {
		key, run := row(i)
		st := &run.Stats
		t.AddRow(
			fmt.Sprintf("%d", key),
			fmt.Sprintf("%d", st.Workers),
			fmt.Sprintf("%d", st.Exec.Rounds),
			fmt.Sprintf("%d", st.Exec.NullAdvances),
			fmt.Sprintf("%d", st.Exec.Rescues),
			fmt.Sprintf("%d", st.Exec.Routed),
			fmt.Sprintf("%d", st.Events),
			st.Wall.Round(time.Millisecond).String(),
			fmt.Sprintf("%.0f", float64(st.Wall)/float64(st.Events)),
			fmt.Sprintf("%.2fx", float64(first.Stats.Wall)/float64(st.Wall)),
			fmt.Sprintf("%.2fs", run.Build.Seconds()),
			fmt.Sprintf("%.1f", float64(run.HeapBytes)/(1<<20)),
			fmt.Sprintf("%.2f", float64(run.HeapBytes)/1024/float64(clients)))
	}
	return t
}

// RunScaleStudy sweeps shard counts over a fixed community.
func RunScaleStudy(opts ScaleOptions) (*ScaleResult, error) {
	shardCounts := opts.Shards
	if len(shardCounts) == 0 {
		shardCounts = []int{1, 2, 4, 8}
	}
	sw := newTopologySweep(opts.Clients, DefaultScaleClients, opts.Hours, 0.25, opts.Seed)
	cfgs := make([]scale.Config, len(shardCounts))
	for i, n := range shardCounts {
		cfgs[i] = scale.Config{Base: sw.base, Factor: sw.factor, Shards: n}
	}
	runs, err := sw.run(cfgs, opts.Sequential, opts.Workers, "shards", shardCounts)
	if err != nil {
		return nil, err
	}
	res := &ScaleResult{Clients: sw.clients, Hours: sw.hours}
	for i, r := range runs {
		res.Rows = append(res.Rows, ScaleRow{Shards: shardCounts[i], SweepRun: r})
	}
	return res, nil
}

// ScaleTables renders the sweep: the saturation table (how hot each
// configuration runs the paper's bottlenecks) and the executor table
// (wall-clock per configuration, speedup relative to the first row).
func ScaleTables(r *ScaleResult) string {
	var b strings.Builder

	sat := stats.NewTable(
		fmt.Sprintf("Throughput vs shards: %d clients, %.2fh horizon", r.Clients, r.Hours),
		"shards", "opens/s", "recalls/h", "maxnet%", "maxdisk%", "router%", "remote-ops", "rlat-ms")
	for _, row := range r.Rows {
		rep := row.Report
		f := foldShards(&rep)
		sat.AddRow(
			fmt.Sprintf("%d", row.Shards),
			fmt.Sprintf("%.2f", rep.OpensPerSec),
			fmt.Sprintf("%.1f", rep.RecallsPerHour),
			fmt.Sprintf("%.1f", f.maxNet*100),
			fmt.Sprintf("%.1f", f.maxDisk*100),
			fmt.Sprintf("%.2f", rep.RouterUtil*100),
			fmt.Sprintf("%d", f.remoteOps),
			fmt.Sprintf("%.2f", f.latMS))
	}
	b.WriteString(sat.String())
	b.WriteString("\n")

	exec := execTable("shards", r.Clients, len(r.Rows),
		func(i int) (int, *SweepRun) { return r.Rows[i].Shards, &r.Rows[i].SweepRun })
	b.WriteString(exec.String())
	b.WriteString(hostMeasured + ". speedup is\nwall-clock relative to the first row (shards=1 unless -shards says\notherwise), so it mixes what sharding buys on any host - smaller per-shard\nevent heaps, wider channel-clock windows - with what the worker goroutines\nadd on a multi-core one; docs/PERFORMANCE.md measures the two apart.\n")
	return b.String()
}
