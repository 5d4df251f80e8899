package workloads

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"slices"
	"sort"
	"text/tabwriter"
	"time"

	"spritefs/bench/drivers"
	"spritefs/bench/harness"
)

// Env is what a run hands every workload.
type Env struct {
	// Seed generates every input; the same seed gives the same inputs.
	Seed int64
	// Seconds is the measuring time the fixed work of the PassReps passes
	// together is sized for. Horizons scale with it; populations do not.
	Seconds float64
	// Procs is GOMAXPROCS, also the worker count of parallel phases.
	Procs int
}

// scaled stretches a pass's reference size (quoted at RunSeconds) to
// env.Seconds.
func (e Env) scaled(ref float64) float64 { return ref * e.Seconds / RunSeconds }

// passSeconds is one pass's share of the measuring time.
func (e Env) passSeconds() float64 { return e.Seconds / PassReps }

// Pass is what one execution of a workload's measured phase hands back.
type Pass struct {
	// Wall, CPU and Runtime cover the measured phase only: not the set-up
	// before it, not the digest and the checks after it.
	Wall, CPU time.Duration
	Runtime   harness.RuntimeCounters
	// Work is how many requests the program served in the phase, in the
	// workload's own unit; sat_rps is Work over WorkWall, which is Wall
	// unless only part of the phase ran the program flat out.
	Work              float64
	WorkWall          time.Duration
	Attempted, Failed int64
	// Digest is the SHA-256 of everything the simulated program reported;
	// empty when the output depends on the wall clock.
	Digest string
	// Problems are the correctness checks that failed.
	Problems []string
	// Layer holds per-layer metrics the pass itself can read: simulated
	// counts in both passes, span-free timings only where stated.
	Layer map[string]float64
	// Notes are remarks a reader of the run needs (which percentile a tail
	// was reported at, a generator that ran late).
	Notes []string
}

func (p *Pass) problemf(format string, args ...any) {
	p.Problems = append(p.Problems, fmt.Sprintf(format, args...))
}

// phase meters a measured phase; it can be suspended around the harness's
// own bookkeeping when that must happen mid-phase.
type phase struct {
	t0           time.Time
	cpu          time.Duration
	rt           harness.RuntimeCounters
	wall, cpuSum time.Duration
	rtSum        harness.RuntimeCounters
}

func beginPhase() *phase {
	ph := &phase{}
	ph.resume()
	return ph
}

func (ph *phase) resume() {
	ph.rt, ph.cpu, ph.t0 = harness.ReadRuntime(), harness.CPUTime(), time.Now()
}

func (ph *phase) suspend() {
	ph.wall += time.Since(ph.t0)
	ph.cpuSum += harness.CPUTime() - ph.cpu
	ph.rtSum = ph.rtSum.Add(harness.ReadRuntime().Sub(ph.rt))
}

func (ph *phase) end() (wall, cpu time.Duration, rt harness.RuntimeCounters) {
	ph.suspend()
	return ph.wall, ph.cpuSum, ph.rtSum
}

// Workload is one named set of inputs. A value is stateful: Setup builds
// what Run then consumes, and Discard drops a set-up that will not be run
// (set-up is repeated to steady setup_s).
type Workload interface {
	Name() string
	// Why is the one line BENCHMARK.json records for the choice.
	Why() string
	// SetupsPerPass is how many times an untraced run sets up before each
	// pass: cheap set-ups are repeated to steady setup_s, and all but the
	// last are discarded unrun.
	SetupsPerPass() int
	// FootprintMB is roughly the memory a pass touches, which the harness
	// faults in beforehand and keeps (harness.Prefault). Too low a figure
	// costs steadiness on a host that backs memory lazily, never correctness.
	FootprintMB() int
	// Setup prepares the measured phase from env and reports the
	// population heap_kb_per_client divides by: the clients it built, or,
	// where what it built is a trace, thousands of trace records.
	Setup(env Env, tr *harness.Tracer) (clients int, err error)
	// Run executes the measured phase on the last Setup.
	Run(env Env, tr *harness.Tracer) (*Pass, error)
	Discard()
}

// extraTraced is implemented by workloads with measurements that belong to
// the traced invocation but to neither pass (scale.parallel_speedup).
type extraTraced interface {
	TracedExtras(env Env) (map[string]float64, error)
}

// All returns fresh instances of the five workloads in reporting order.
func All() []Workload {
	return []Workload{newPaperEval(), newScale5k(), newWANLean50k(), newReplaySweep(), newLiveSoak()}
}

// ByName returns a fresh instance of the named workload.
func ByName(name string) (Workload, error) {
	for _, w := range All() {
		if w.Name() == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// Outcome is a finished run: the result line plus what does not fit in it.
type Outcome struct {
	Result *harness.Result
	Digest string
	Notes  []string
}

func setup(w Workload, env Env, tr *harness.Tracer) (clients int, took time.Duration, err error) {
	w.Discard()
	// Every set-up and the pass after it start from a collected heap, the
	// previous one's garbage gone, so that a repeat meets what the first did.
	runtime.GC()
	t0 := time.Now()
	clients, err = w.Setup(env, tr)
	if err != nil {
		return 0, 0, fmt.Errorf("%s: set-up: %w", w.Name(), err)
	}
	if clients < 1 {
		return 0, 0, fmt.Errorf("%s: set-up reported %d clients", w.Name(), clients)
	}
	return clients, time.Since(t0), nil
}

// RunUntraced runs what yields the end-to-end metrics: the workload's
// set-up and measured phase PassReps times over, identical each time, with no
// tracer and no profiler. The host's speed drops by a quarter for seconds at
// a time (README, "Steadiness"), which can only slow a pass down, so wall_s,
// cpu_s and sat_rps are those of the least disturbed pass: the one that
// served its requests fastest. The memory metrics, which the host's speed
// does not move, are medians over the passes, as setup_s is over the
// set-ups, which are repeated before every pass, not bunched at the start,
// so that they sample the host's speed at three moments too.
func RunUntraced(w Workload, env Env) (*Outcome, error) {
	harness.Prefault(w.FootprintMB())
	var passes []*Pass
	var setups, peaks, heaps []float64
	for p := 0; p < PassReps; p++ {
		var clients int
		for i := 0; i < w.SetupsPerPass(); i++ {
			c, took, err := setup(w, env, nil)
			if err != nil {
				return nil, err
			}
			clients = c
			setups = append(setups, took.Seconds())
		}
		heap := harness.LiveHeapBytes()
		mem := harness.StartMemSampler()
		pass, err := w.Run(env, nil)
		peak := mem.Stop()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name(), err)
		}
		if pass.WorkWall == 0 {
			pass.WorkWall = pass.Wall
		}
		if pass.Work <= 0 || pass.WorkWall <= 0 {
			pass.problemf("measured phase served %g requests in %v", pass.Work, pass.WorkWall)
		}
		passes = append(passes, pass)
		peaks = append(peaks, peak)
		heaps = append(heaps, float64(heap)/1024/float64(clients))
	}
	w.Discard()

	rps := func(p *Pass) float64 { return p.Work / p.WorkWall.Seconds() }
	best := passes[0]
	timings := "passes (wall_s cpu_s sat_rps peak_mem_mb):"
	for i, p := range passes {
		if rps(p) > rps(best) {
			best = p
		}
		timings += fmt.Sprintf(" %.3f %.3f %.0f %.0f;", p.Wall.Seconds(), p.CPU.Seconds(), rps(p), peaks[i])
	}
	// The result is the fastest pass's, with every pass's requests, failures
	// and failed checks counted in.
	out := &Pass{Digest: best.Digest, Notes: append(best.Notes, timings)}
	for _, p := range passes {
		out.Attempted += p.Attempted
		out.Failed += p.Failed
		out.Problems = append(out.Problems, p.Problems...)
		// The passes are the same work: whatever the simulated program
		// reported must repeat exactly.
		if p.Digest != best.Digest {
			out.problemf("digest differs between passes of one run: %s and %s", best.Digest, p.Digest)
		}
	}
	values := map[string]float64{
		"setup_s":            harness.Median(setups),
		"wall_s":             best.Wall.Seconds(),
		"cpu_s":              best.CPU.Seconds(),
		"sat_rps":            rps(best),
		"peak_mem_mb":        harness.Median(peaks),
		"heap_kb_per_client": harness.Median(heaps),
	}
	return finish(EndToEnd, values, out, out.Notes), nil
}

// finish packs values into a Result holding exactly the declared metrics.
func finish(specs []harness.MetricSpec, values map[string]float64, pass *Pass, notes []string) *Outcome {
	res := &harness.Result{
		Correct:   len(pass.Problems) == 0,
		Attempted: pass.Attempted,
		Failed:    pass.Failed,
		Metrics:   make(map[string]harness.Metric, len(specs)),
	}
	if res.Attempted < 1 {
		res.Attempted, res.Correct = 1, false
		notes = append(notes, "CHECK FAILED: nothing attempted")
	}
	for _, m := range specs {
		res.Metrics[m.Name] = harness.Metric{Value: values[m.Name], Unit: m.Unit}
	}
	for _, p := range pass.Problems {
		notes = append(notes, "CHECK FAILED: "+p)
	}
	return &Outcome{Result: res, Digest: pass.Digest, Notes: notes}
}

// RunTraced runs what yields the per-layer metrics. It first repeats the
// untraced measured phase as a reference (its wall is the base of
// runtime.profile_overhead_pct, its digest and counts must match the
// traced pass's), then runs the phase again with spans and a CPU profile,
// then the layer drivers. The spans and the layer table are written under
// outDir; the table is also printed to log.
func RunTraced(w Workload, env Env, outDir string, log io.Writer) (*Outcome, error) {
	harness.Prefault(w.FootprintMB())
	if _, _, err := setup(w, env, nil); err != nil {
		return nil, err
	}
	ref, err := w.Run(env, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: reference pass: %w", w.Name(), err)
	}

	tr := harness.NewTracer(fmt.Sprintf("%s seed=%d", w.Name(), env.Seed))
	if _, _, err := setup(w, env, tr); err != nil {
		return nil, err
	}
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name(), err)
	}
	pass, err := w.Run(env, tr)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, fmt.Errorf("%s: traced pass: %w", w.Name(), err)
	}
	w.Discard()
	pass.Problems = append(pass.Problems, ref.Problems...)
	if pass.Digest != ref.Digest {
		pass.problemf("digest differs between the untraced pass (%s) and the traced pass (%s)", ref.Digest, pass.Digest)
	}

	values := make(map[string]float64, len(PerLayer))
	for k, v := range pass.Layer {
		values[k] = v
	}
	// A simulated count the untraced pass also read must repeat exactly.
	if pass.Digest != "" {
		for _, m := range PerLayer {
			rv, ok := ref.Layer[m.Name]
			if ok && harness.ExactUnit(m.Unit) && rv != values[m.Name] {
				pass.problemf("%s is %v untraced but %v traced", m.Name, rv, values[m.Name])
			}
		}
	}
	// Latencies of the wall-clock workload come from the pass without the
	// profiler.
	for _, k := range untracedOnly {
		if v, ok := ref.Layer[k]; ok {
			values[k] = v
		}
	}

	byModule, total, err := harness.FoldCPU(prof.Bytes(), harness.ModuleClassifier(Modules, HarnessModule))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name(), err)
	}
	for _, m := range cpuRows {
		values[m+".cpu_s"] = byModule[m].Seconds()
	}
	values["runtime.background_cpu_s"] = byModule[harness.Background].Seconds()
	values["runtime.profile_overhead_pct"] = 100 * (pass.Wall.Seconds() - ref.Wall.Seconds()) / ref.Wall.Seconds()
	values["runtime.gomaxprocs"] = float64(env.Procs)
	values["runtime.gc_pause_ms"] = float64(pass.Runtime.GCPause) / 1e6
	if pass.Runtime.TotalCPU > 0 {
		values["runtime.gc_cpu_share"] = pass.Runtime.GCCPU / pass.Runtime.TotalCPU
	}
	// Per simulated RPC, unless the pass set them itself because its counts
	// cover only part of the phase (paper_eval reads trace 1's registry).
	if _, set := values["netsim.wall_ns_per_rpc"]; !set && values["netsim.rpcs"] > 0 {
		values["runtime.mallocs_per_krpc"] = float64(pass.Runtime.Mallocs) / (values["netsim.rpcs"] / 1000)
		values["netsim.wall_ns_per_rpc"] = float64(ref.Wall) / values["netsim.rpcs"]
	}

	if x, ok := w.(extraTraced); ok {
		extra, err := x.TracedExtras(env)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name(), err)
		}
		for k, v := range extra {
			values[k] = v
		}
	}
	debug.FreeOSMemory() // the drivers start from the same heap after every workload
	for k, v := range drivers.RunAll(env.Seed) {
		values[k] = v
	}

	notes := ref.Notes
	for _, n := range pass.Notes {
		if !slices.Contains(notes, n) {
			notes = append(notes, n)
		}
	}
	out := finish(PerLayer, values, pass, notes)
	table := layerTable(w.Name(), env, values, byModule, total, tr)
	fmt.Fprint(log, table)
	if err := writeTrace(outDir, w.Name(), tr, table); err != nil {
		return nil, err
	}
	return out, nil
}

// untracedOnly are per-layer metrics taken from the reference pass of the
// traced invocation, because a profiler signal in the request path would be
// measured as latency.
var untracedOnly = []string{"live.open_p50_ms", "live.p99_ms", "live.late_ratio", "live.overhead_p50_us", "live.overhead_p99_us"}

func writeTrace(dir, name string, tr *harness.Tracer, table string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var spans bytes.Buffer
	if err := tr.WriteJSON(&spans); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, name+".spans.json"), spans.Bytes(), 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name+".layers.txt"), []byte(table), 0o644)
}

// layerTable renders the traced pass for a reader: CPU by module from the
// profile, then wall self time by layer from the spans.
func layerTable(name string, env Env, values map[string]float64, byModule map[string]time.Duration, total time.Duration, tr *harness.Tracer) string {
	var b bytes.Buffer
	fmt.Fprintf(&b, "layer table: %s seed=%d GOMAXPROCS=%d\n", name, env.Seed, env.Procs)
	tw := tabwriter.NewWriter(&b, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "module\tcpu_s\tshare")
	keys := make([]string, 0, len(byModule))
	for k := range byModule {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return byModule[keys[i]] > byModule[keys[j]] })
	var charged time.Duration
	for _, k := range keys {
		label := k
		if k == harness.Background {
			label = "(runtime background)"
		}
		charged += byModule[k]
		fmt.Fprintf(tw, "%s\t%.3f\t%.1f%%\n", label, byModule[k].Seconds(), 100*byModule[k].Seconds()/total.Seconds())
	}
	fmt.Fprintf(tw, "rows / profile total\t%.3f / %.3f\t%.1f%%\n", charged.Seconds(), total.Seconds(), 100*charged.Seconds()/total.Seconds())
	tw.Flush()
	fmt.Fprintf(&b, "profile overhead %.1f%% of the untraced wall; GC %.1f%% of CPU\n\n",
		values["runtime.profile_overhead_pct"], 100*values["runtime.gc_cpu_share"])
	tw = tabwriter.NewWriter(&b, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "layer\tspan self time (s)")
	self := tr.SelfByLayer()
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Slice(layers, func(i, j int) bool { return self[layers[i]] > self[layers[j]] })
	for _, l := range layers {
		fmt.Fprintf(tw, "%s\t%.3f\n", l, self[l].Seconds())
	}
	tw.Flush()
	return b.String()
}
