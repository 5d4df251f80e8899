package workloads

import (
	"io"
	"math"
	"time"

	"spritefs/bench/harness"
	"spritefs/internal/analysis"
	"spritefs/internal/cluster"
	"spritefs/internal/consistency"
	"spritefs/internal/core"
	"spritefs/internal/sim"
	"spritefs/internal/trace"
	"spritefs/internal/workload"
)

// Reference sizes of a pass of paper_eval at RunSeconds: each of the eight
// traces covers paperTraceHours, the counter study paperCounterDays. The
// paper's own sizes (24 h, 14 days) take more than the time cap allows.
const (
	paperTraceHours  = 6.0
	paperCounterDays = 3.0
	numTraces        = 8
	// counterSeed is core.RunCounterStudy's default seed; workload seed 1
	// reproduces what cmd/experiments runs.
	counterSeed = 424242
)

// paperEval is the paper's whole evaluation through the entry points
// cmd/experiments uses.
type paperEval struct {
	// built is the set-up's product: the eight 40-client clusters as
	// core.RunTrace assembles them. RunTrace offers no seam between
	// assembly and run, so the bootstrap is measured on its own copies.
	built []*cluster.Cluster
}

func newPaperEval() *paperEval { return &paperEval{} }

func (*paperEval) Name() string { return "paper_eval" }
func (*paperEval) Why() string {
	return "The instrument's purpose: eight Section 4 traces and the Section 5 counter study via core.RunTrace/RunCounterStudy. Only workload where trace, analysis, consistency and report builders work."
}
func (*paperEval) SetupsPerPass() int { return 5 }
func (*paperEval) FootprintMB() int   { return 256 }
func (p *paperEval) Discard()         { p.built = nil }

// traceSeedOffset is what env's seed adds to trace n's canonical seed: seed 1
// gives the paper's traces as cmd/tracegen and core.RunTrace(n, {}) generate
// them. Traces 3 and 4 keep their canonical seeds under every workload seed.
// They carry the paper's two class-project users, whose 20 MB simulator
// inputs streamed through a 256 KB cache are the largest single cost of a
// trace — half of paper_eval's eight traces together, 60–75 % of
// replay_sweep — and whose few runs inside a window of hours make that cost
// swing two- to threefold with the seed (0.35 s to 1.05 s for trace 4 at 6 h)
// while the record count barely moves. No host can resolve a change against
// that; the workload seed varies the other six traces and the counter study.
func traceSeedOffset(env Env, n int) int64 {
	if n == 3 || n == 4 {
		return 0
	}
	return env.Seed - 1
}

// traceParams is trace n's community under env's seed.
func traceParams(env Env, n int) workload.Params {
	pr := workload.TraceParams(n)
	pr.Seed += traceSeedOffset(env, n)
	return pr
}

// traceConfig is trace n's cluster exactly as core.RunTrace configures it.
func traceConfig(env Env, n int) cluster.Config {
	cfg := cluster.DefaultConfig(traceParams(env, n))
	cfg.SamplePeriod = 0
	return cfg
}

func (p *paperEval) Setup(env Env, tr *harness.Tracer) (int, error) {
	p.built = p.built[:0]
	clients := 0
	for n := 1; n <= numTraces; n++ {
		end := tr.Begin("cluster", "New")
		cl := cluster.New(traceConfig(env, n))
		end()
		p.built = append(p.built, cl)
		clients += len(cl.Clients)
	}
	return clients, nil
}

func (p *paperEval) Run(env Env, tr *harness.Tracer) (*Pass, error) {
	p.built = nil // RunTrace assembles its own
	hours := env.scaled(paperTraceHours)
	days := env.scaled(paperCounterDays)
	pass := &Pass{}
	lc := newLayerCounts()

	ph := beginPhase()
	results := make([]*core.TraceResult, numTraces)
	for n := 1; n <= numTraces; n++ {
		var err error
		if n == 1 && tr != nil {
			results[0], err = tracedTrace1(env, hours, tr, lc)
		} else {
			end := tr.Begin("core", "RunTrace")
			results[n-1], err = core.RunTrace(n, core.TraceOptions{Hours: hours, SeedOffset: traceSeedOffset(env, n)})
			end()
		}
		if err != nil {
			return nil, err
		}
	}
	end := tr.Begin("core", "RunCounterStudy")
	cr := core.RunCounterStudy(core.CounterOptions{Days: days, Seed: counterSeed + env.Seed - 1})
	end()
	end = tr.Begin("core", "tables")
	report := core.TraceReport(results)
	counters := core.CounterTables(cr)
	end()
	pass.Wall, pass.CPU, pass.Runtime = ph.end()

	d := newDigester()
	d.addString(report)
	d.addString(counters)
	pass.Digest = d.sum()

	var opens, closes, records, shared int64
	for _, r := range results {
		opens += r.Overall.Opens
		closes += r.Overall.Closes
		records += int64(r.Records)
		shared += r.Overhead.AppOps
	}
	// Every open the traces logged must have been closed by the drain.
	pass.Attempted = opens + cr.Table10.FileOpens
	if opens > closes {
		pass.Failed = opens - closes
	}
	pass.Failed += lc.abortedOps
	pass.Work = float64(pass.Attempted)
	if p := lc.writebackProblem(); p != "" {
		pass.problemf("trace 1: %s", p)
	}

	pass.Layer = lc.finish()
	pass.Layer["trace.records"] = float64(records)
	pass.Layer["consistency.shared_ops"] = float64(shared)
	pass.Layer["paper.err_pct"] = paperErrPct(results, cr)
	if tr != nil {
		pass.Layer["cluster.build_s"] = tr.Total("cluster", "New").Seconds()
		pass.Layer["cluster.report_s"] = tr.Total("cluster", "Report").Seconds()
		pass.Layer["trace.merge_s"] = tr.Total("trace", "merge").Seconds()
		pass.Layer["analysis.run_s"] = tr.Total("analysis", "Run").Seconds()
		pass.Layer["consistency.sim_s"] = tr.Total("consistency", "sims").Seconds()
		pass.Layer["metrics.snapshot_s"] = tr.Total("metrics", "snapshot").Seconds()
		if n := float64(results[0].Records); n > 0 {
			pass.Layer["analysis.ns_per_record"] = float64(tr.Total("analysis", "Run")) / n
		}
		if ev := pass.Layer["sim.events"]; ev > 0 {
			pass.Layer["sim.ns_per_event"] = float64(tr.Total("sim", "run")+tr.Total("sim", "drain")) / ev
		}
	}
	return pass, nil
}

// stepUntil is (*sim.Sim).RunUntil spelled out over NextAt/Step so the
// harness can count events.
func stepUntil(s *sim.Sim, t time.Duration) (events int64) {
	for {
		at, ok := s.NextAt()
		if !ok || at > t {
			break
		}
		s.Step()
		events++
	}
	s.RunUntil(t) // nothing is due; this only sets the clock to t
	return events
}

// tracedTrace1 is core.RunTrace(1) taken apart at its layer boundaries:
// assembly, community start, the event loop (driven from here so events
// can be counted), daemon stop, drain, the per-server merge, the analysis
// pass, the consistency simulations. The result must equal RunTrace's —
// the digest over the rendered tables holds it to that.
func tracedTrace1(env Env, hours float64, tr *harness.Tracer, lc *layerCounts) (*core.TraceResult, error) {
	end := tr.Begin("cluster", "New")
	cl := cluster.New(traceConfig(env, 1))
	end()
	horizon := time.Duration(hours * float64(time.Hour))

	simulation := beginPhase()
	end = tr.Begin("workload", "Start")
	cl.Start(horizon)
	end()
	end = tr.Begin("sim", "run")
	events := stepUntil(cl.Sim, horizon)
	end()
	end = tr.Begin("cluster", "Finish")
	cl.Finish()
	end()
	end = tr.Begin("sim", "drain")
	events += stepUntil(cl.Sim, horizon+cluster.DrainTime)
	end()
	simWall, _, simRuntime := simulation.end()

	res := &core.TraceResult{
		TraceNum: 1, Hours: hours,
		Overall:  analysis.NewOverall(),
		Activity: analysis.NewUserActivity(),
		Access:   analysis.NewAccessPatterns(),
		Lifetime: analysis.NewLifetimes(),
		Actions:  analysis.NewConsistencyActions(),
	}
	end = tr.Begin("trace", "merge")
	merged, err := trace.Collect(trace.Merge(cl.PerServerStreams()...))
	end()
	if err != nil {
		return nil, err
	}
	res.Records = len(merged)
	end = tr.Begin("analysis", "Run")
	err = analysis.Run(trace.NewSliceStream(merged), res.Overall, res.Activity, res.Access, res.Lifetime, res.Actions)
	end()
	if err != nil {
		return nil, err
	}
	end = tr.Begin("consistency", "sims")
	shared := consistency.CollectShared(merged)
	res.Stale60 = consistency.SimulateStale(shared, 60*time.Second)
	res.Stale3 = consistency.SimulateStale(shared, 3*time.Second)
	res.Overhead = consistency.SimulateOverhead(shared)
	end()

	end = tr.Begin("cluster", "Report")
	cl.Report()
	end()
	end = tr.Begin("metrics", "snapshot")
	cl.Reg.Snapshot()
	err = cl.Reg.WritePrometheus(io.Discard)
	end()
	if err != nil {
		return nil, err
	}
	lc.addRegistry(cl.Reg, 1, horizon)
	lc.m["sim.events"] = float64(events)
	// The registry read here covers trace 1 only, so what is quoted per
	// simulated RPC is trace 1's simulation, not the whole phase.
	if rpcs := lc.m["netsim.rpcs"]; rpcs > 0 {
		lc.m["netsim.wall_ns_per_rpc"] = float64(simWall) / rpcs
		lc.m["runtime.mallocs_per_krpc"] = float64(simRuntime.Mallocs) / (rpcs / 1000)
	}
	return res, nil
}

// paperErrPct is the mean absolute percentage error of twelve headline
// statistics against the values the paper published. It is a function of
// the seed and the horizons alone: a speed-only change cannot move it, a
// model change is judged on it.
func paperErrPct(results []*core.TraceResult, cr *core.CounterResult) float64 {
	avg := func(f func(*core.TraceResult) float64) float64 {
		var s float64
		for _, r := range results {
			s += f(r)
		}
		return s / float64(len(results))
	}
	stats := []struct{ measured, paper float64 }{
		// Table 2: 10-minute average throughput per active user, KB/s.
		{avg(func(r *core.TraceResult) float64 { return r.Activity.TenMinAll.AvgThroughputKBs }), 8.0},
		// Table 3: read-only accesses; bytes of read-only accesses read whole-file.
		{avg(func(r *core.TraceResult) float64 { a, _ := r.Access.ClassPct(analysis.ReadOnly); return a }), 88},
		{avg(func(r *core.TraceResult) float64 {
			_, b := r.Access.SeqPct(analysis.ReadOnly, analysis.WholeFile)
			return b
		}), 89},
		// Figure 1: sequential runs of at most 10 KB.
		{100 * avg(func(r *core.TraceResult) float64 { return r.Access.RunsByCount.FracAtOrBelow(10 * 1024) }), 80},
		// Figure 3: opens lasting at most a quarter second.
		{100 * avg(func(r *core.TraceResult) float64 { return r.Access.OpenTimes.FracAtOrBelow(0.25) }), 75},
		// Figure 4: files and bytes living under 30 s (midpoints of the
		// published per-trace ranges 65–80 and 4–27).
		{avg(func(r *core.TraceResult) float64 { return r.Lifetime.PctFilesUnder30s() }), 72.5},
		{avg(func(r *core.TraceResult) float64 { return r.Lifetime.PctBytesUnder30s() }), 15.5},
		// Table 5: paging share of raw traffic.
		{cr.Table5.PagingPct, 35},
		// Table 6: file read miss ratio; writeback traffic over bytes written.
		{cr.Table6.All.ReadMissPct, 41.4},
		{cr.Table6.All.WritebackPct, 88.4},
		// Table 10: opens causing concurrent write-sharing; opens causing a recall.
		{avg(func(r *core.TraceResult) float64 { return r.Actions.PctCWS() }), 0.34},
		{avg(func(r *core.TraceResult) float64 { return r.Actions.PctRecalls() }), 1.7},
	}
	var sum float64
	for _, s := range stats {
		sum += math.Abs(s.measured-s.paper) / s.paper
	}
	return 100 * sum / float64(len(stats))
}
