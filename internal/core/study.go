// Package core is the reproduction's public façade: it packages the whole
// measurement study — the paper's primary contribution — as a library.
// A Study runs the two campaigns the paper describes: the eight 24-hour
// trace collections analyzed in Section 4 (Tables 1-3, Figures 1-4, plus
// the trace-driven consistency simulations of Tables 10-12), and the
// multi-day kernel-counter collection behind the Section 5 cache tables
// (Tables 4-9).
//
// Everything is deterministic given the trace number / seed, and every
// run can be scaled down (fewer hours, fewer clients) for quick
// experimentation; cmd/experiments drives full-scale runs.
package core

import (
	"sync"
	"time"

	"spritefs/internal/analysis"
	"spritefs/internal/cluster"
	"spritefs/internal/consistency"
	"spritefs/internal/stats"
	"spritefs/internal/trace"
	"spritefs/internal/workload"
)

// TraceResult bundles every Section 4 analysis of one trace, plus the
// trace-driven consistency simulations of Sections 5.5-5.6.
type TraceResult struct {
	TraceNum int
	Hours    float64

	Overall  *analysis.Overall
	Activity *analysis.UserActivity
	Access   *analysis.AccessPatterns
	Lifetime *analysis.Lifetimes
	Actions  *analysis.ConsistencyActions

	Stale60  consistency.StaleResult
	Stale3   consistency.StaleResult
	Overhead consistency.Overhead

	Records int
}

// TraceOptions scales a trace run.
type TraceOptions struct {
	// Hours of simulated time (the paper's traces are 24-hour).
	Hours float64
	// Scale shrinks the community: 1.0 is the full 40-client cluster and
	// the largest value (a larger one runs the full cluster); 0.25 runs a
	// quarter-size cluster for quick checks. Values <= 0 default to 1.0.
	Scale float64
	// SeedOffset perturbs the trace's seed (repeat runs).
	SeedOffset int64
}

// scaleParams shrinks the community proportionally.
func scaleParams(p workload.Params, scale float64) workload.Params {
	if scale <= 0 || scale >= 1 {
		return p
	}
	shrink := func(n int) int {
		v := int(float64(n) * scale)
		if v < 2 {
			v = 2
		}
		return v
	}
	p.NumClients = shrink(p.NumClients)
	p.DailyUsers = shrink(p.DailyUsers)
	p.OccasionalUsers = shrink(p.OccasionalUsers)
	return p
}

// RunTrace executes trace configuration n (1..8) and all its analyses.
func RunTrace(n int, opts TraceOptions) (*TraceResult, error) {
	p := workload.TraceParams(n)
	p.Seed += opts.SeedOffset
	p = scaleParams(p, opts.Scale)
	hours := opts.Hours
	if hours <= 0 {
		hours = 24
	}

	cfg := cluster.DefaultConfig(p)
	cfg.SamplePeriod = 0 // Section 4 runs need no counter sampling
	dur := time.Duration(hours * float64(time.Hour))
	return streamTrace(cfg, n, hours, func(cl *cluster.Cluster) { cl.Run(dur) })
}

// streamTrace builds the cluster cfg describes, tracing into a capture,
// and drives it with run on a goroutine while AnalyzeTrace (labelled n and
// hours) consumes the capture on the caller's goroutine: the paper's merge
// of the per-server trace files, and the scan after it, as one pass that
// overlaps the run. It returns once run has.
func streamTrace(cfg cluster.Config, n int, hours float64, run func(*cluster.Cluster)) (*TraceResult, error) {
	c := newCapture(cfg.NumServers, traceBatch)
	cfg.CollectTrace, cfg.TraceSink = true, c.emit
	cl := cluster.New(cfg)
	c.start(func() { run(cl) })
	defer c.stop()
	return AnalyzeTrace(n, hours, c)
}

// AnalyzeTrace is the Section 4 pipeline over one merged, time-ordered
// record stream — a cluster's own capture, trace files, or anything else
// that yields records: every analyzer and the shared-file collector in
// one pass, then the Section 5.5-5.6 consistency simulations, side by
// side. n and hours only label the result.
func AnalyzeTrace(n int, hours float64, s trace.Stream) (*TraceResult, error) {
	res := &TraceResult{
		TraceNum: n,
		Hours:    hours,
		Overall:  analysis.NewOverall(),
		Activity: analysis.NewUserActivity(),
		Access:   analysis.NewAccessPatterns(),
		Lifetime: analysis.NewLifetimes(),
		Actions:  analysis.NewConsistencyActions(),
	}
	shared := consistency.NewSharedCollector()
	var records recordCount
	if err := analysis.Run(s,
		res.Overall, res.Activity, res.Access, res.Lifetime, res.Actions, shared, &records); err != nil {
		return nil, err
	}
	res.Records = int(records)

	// The simulations only read the shared trace.
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		res.Stale60 = consistency.SimulateStale(shared.SharedTrace, 60*time.Second)
	}()
	go func() {
		defer wg.Done()
		res.Stale3 = consistency.SimulateStale(shared.SharedTrace, 3*time.Second)
	}()
	res.Overhead = consistency.SimulateOverhead(shared.SharedTrace)
	wg.Wait()
	return res, nil
}

// recordCount is an analysis sink that counts the records.
type recordCount int

func (c *recordCount) Observe(*trace.Record) { *c++ }
func (c *recordCount) Finish()               {}

// FigureSeries is one of the cumulative distributions behind Figures 1-4.
type FigureSeries struct {
	Name string // "fig1.runs": the figure, then what weights the distribution
	Hist *stats.Hist
}

// FigureSeries lists the seven Figure 1-4 distributions in figure order.
func (r *TraceResult) FigureSeries() []FigureSeries {
	return []FigureSeries{
		{"fig1.runs", r.Access.RunsByCount},
		{"fig1.bytes", r.Access.RunsByBytes},
		{"fig2.files", r.Access.SizeByFiles},
		{"fig2.bytes", r.Access.SizeByBytes},
		{"fig3.opentimes", r.Access.OpenTimes},
		{"fig4.files", r.Lifetime.ByFiles},
		{"fig4.bytes", r.Lifetime.ByBytes},
	}
}

// CounterResult is the Section 5 counter study: every counter table of
// the run, and the Ethernet's utilization over it.
type CounterResult struct {
	Days float64
	cluster.Report
	NetUtilization float64
}

// CounterOptions scales the counter campaign.
type CounterOptions struct {
	// Days of simulated time (the paper collected two weeks).
	Days float64
	// Scale shrinks the community as in TraceOptions.
	Scale float64
	Seed  int64
}

// CounterParams is the counter study's full-scale community: the default
// workload without backup noise, plus the big-file class projects. The
// paper's two-week counter window spanned those projects too, and their
// multi-megabyte inputs are what keep read miss ratios high even with
// multi-megabyte caches (Section 5.2). Every point of the claims table
// starts from the same block.
func CounterParams(seed int64) workload.Params {
	p := workload.Default(seed)
	p.EmitBackupNoise = false
	p.BigSimUsers = 1
	p.SimInputMB = 6
	p.SimOutputMB = 2
	return p
}

// defaultCounterSeed is the counter study's seed when none is given.
const defaultCounterSeed = 424242

// RunCounterStudy reproduces the Section 5 measurement campaign: the
// cluster runs with counters sampled periodically and no tracing, and the
// tables are computed from the counters.
func RunCounterStudy(opts CounterOptions) *CounterResult {
	days := opts.Days
	if days <= 0 {
		days = 1
	}
	seed := opts.Seed
	if seed == 0 {
		seed = defaultCounterSeed
	}
	cfg := cluster.DefaultConfig(scaleParams(CounterParams(seed), opts.Scale))
	cfg.CollectTrace = false
	return runCounters(cluster.New(cfg), days)
}

// runCounters runs a Section 5 cluster for days of simulated time and
// reads every counter table off it. RunCounterStudy and every point of a
// claim run through it.
func runCounters(cl *cluster.Cluster, days float64) *CounterResult {
	dur := time.Duration(days * 24 * float64(time.Hour))
	cl.Run(dur)
	return &CounterResult{Days: days, Report: cl.Report(), NetUtilization: cl.Net.Utilization(dur)}
}
