package workloads

import (
	"encoding/json"
	"io"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"spritefs/bench/drivers"
	"spritefs/bench/harness"
)

var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

// TestBenchmarkJSONIsTheDeclaredSpec holds the committed BENCHMARK.json to
// the declarations in this package (regenerate with `spritebench spec`)
// and the declarations to the shape the file's contract fixes.
func TestBenchmarkJSONIsTheDeclaredSpec(t *testing.T) {
	committed, err := harness.LoadSpec("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	declared := Spec()
	// Compare through JSON so omitted zero values do not matter.
	a, _ := json.Marshal(committed)
	b, _ := json.Marshal(declared)
	if string(a) != string(b) {
		i := 0
		for i < len(a) && i < len(b) && a[i] == b[i] {
			i++
		}
		t.Errorf("BENCHMARK.json differs from workloads.Spec() at byte %d (committed ...%.80s, declared ...%.80s); run `spritebench spec > BENCHMARK.json`", i, a[i:], b[i:])
	}

	seen := map[string]bool{}
	name := func(kind, n string) {
		if !harness.NameRE.MatchString(n) {
			t.Errorf("%s name %q does not match %s", kind, n, harness.NameRE)
		}
		if seen[n] {
			t.Errorf("%s name %q is used twice", kind, n)
		}
		seen[n] = true
	}
	if n := len(declared.Workloads); n != 5 {
		t.Errorf("%d workloads declared, want 5", n)
	}
	for _, w := range declared.Workloads {
		name("workload", w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") || w.Why == "" {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range declared.EndToEnd {
		name("end-to-end metric", m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("%s: unit %q better %q", m.Name, m.Unit, m.Better)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			hasSetup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if n := len(declared.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics declared, want 1..128", n)
	}
	for _, m := range declared.PerLayer {
		name("per-layer metric", m.Name)
		if !unitRE.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") || m.Bound != 0 {
			t.Errorf("%s: unit %q better %q bound %v", m.Name, m.Unit, m.Better, m.Bound)
		}
		if !strings.Contains(m.Name, ".") {
			t.Errorf("per-layer metric %q is not <module>.<metric>", m.Name)
		}
	}
	for _, mod := range Modules {
		if !seen[mod+".cpu_s"] {
			t.Errorf("module %s has no cpu_s row", mod)
		}
	}
}

// small returns the five workloads at sizes a test can afford: the same
// code paths, populations and horizons cut down.
func small() []Workload {
	return []Workload{
		newPaperEval(),
		&scaleRun{name: "scale_5k", why: "test", factor: 2, shards: 4, refHorizon: 20 * time.Hour},
		&scaleRun{name: "wan_lean_50k", why: "test", factor: 4, shards: 8, lean: true, refHorizon: 20 * time.Hour},
		newReplaySweep(),
		newLiveSoak(),
	}
}

func metricNames(r *harness.Result) []string {
	var out []string
	for k := range r.Metrics {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func specNames(specs []harness.MetricSpec) []string {
	var out []string
	for _, m := range specs {
		out = append(out, m.Name)
	}
	sort.Strings(out)
	return out
}

// TestPassesEmitExactlyTheDeclaredMetrics runs both passes of every
// workload, scaled down, and checks that what they emit is what
// BENCHMARK.json declares — no more, no less — with units, that the
// correctness checks pass, that nothing fails, and that the traced pass
// reproduces the untraced digest.
func TestPassesEmitExactlyTheDeclaredMetrics(t *testing.T) {
	old := drivers.MinTime
	drivers.MinTime = 2 * time.Millisecond
	defer func() { drivers.MinTime = old }()

	env := Env{Seed: 3, Seconds: 0.25, Procs: harness.SetProcs()}
	for _, w := range small() {
		w := w
		t.Run(w.Name(), func(t *testing.T) {
			un, err := RunUntraced(w, env)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := metricNames(un.Result), specNames(EndToEnd); !reflect.DeepEqual(got, want) {
				t.Errorf("untraced pass emitted %v, declared %v", got, want)
			}
			for _, m := range EndToEnd {
				v := un.Result.Metrics[m.Name]
				if v.Unit != m.Unit || !(v.Value > 0) {
					t.Errorf("%s = %v %q, want a positive value in %q", m.Name, v.Value, v.Unit, m.Unit)
				}
			}
			tr, err := RunTraced(w, env, t.TempDir(), io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := metricNames(tr.Result), specNames(PerLayer); !reflect.DeepEqual(got, want) {
				t.Errorf("traced pass emitted %v, declared %v", got, want)
			}
			for _, o := range []*Outcome{un, tr} {
				if !o.Result.Correct || o.Result.Failed != 0 || o.Result.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d notes=%v", o.Result.Correct, o.Result.Attempted, o.Result.Failed, o.Notes)
				}
			}
			if un.Digest != tr.Digest {
				t.Errorf("digest %q untraced, %q traced", un.Digest, tr.Digest)
			}
			if (un.Digest == "") != (w.Name() == "live_soak") {
				t.Errorf("digest %q: only the wall-clock workload goes without one", un.Digest)
			}
			// The layer table's rows must account for the whole profile.
			var rows float64
			for _, m := range cpuRows {
				rows += tr.Result.Metrics[m+".cpu_s"].Value
			}
			rows += tr.Result.Metrics["runtime.background_cpu_s"].Value
			if rows <= 0 {
				t.Error("the CPU profile charged nothing to any row")
			}
			if v := tr.Result.Metrics["runtime.gomaxprocs"].Value; v != float64(env.Procs) {
				t.Errorf("runtime.gomaxprocs = %v, want %d", v, env.Procs)
			}
		})
	}
}

// TestTracedTrace1EqualsRunTrace pins the decomposed trace-1 pipeline to
// core.RunTrace: same records, same rendered tables.
func TestTracedTrace1EqualsRunTrace(t *testing.T) {
	env := Env{Seed: 2, Seconds: 0.5, Procs: 1}
	p := newPaperEval()
	plain, err := p.Run(env, nil)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := p.Run(env, harness.NewTracer("t"))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Digest != traced.Digest {
		t.Error("rendered tables differ between core.RunTrace(1) and the decomposed pipeline")
	}
	if a, b := plain.Layer["trace.records"], traced.Layer["trace.records"]; a != b || a == 0 {
		t.Errorf("records: %v via RunTrace, %v decomposed", a, b)
	}
	if traced.Layer["sim.events"] == 0 || traced.Layer["sim.ns_per_event"] == 0 {
		t.Error("the harness-driven event loop counted nothing")
	}
}

func TestOpenLoopScheduleIsAPureFunctionOfTheSeed(t *testing.T) {
	const rate, length = 3000.0, 2 * time.Second
	a := OpenLoopSchedule(7, rate, length, 40)
	b := OpenLoopSchedule(7, rate, length, 40)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two schedules")
	}
	if c := OpenLoopSchedule(8, rate, length, 40); reflect.DeepEqual(a, c) {
		t.Error("two seeds gave one schedule")
	}
	// Poisson arrivals: about rate × length sessions (±5 standard deviations).
	want := rate * length.Seconds()
	if n := float64(len(a)); n < want-5*77 || n > want+5*77 {
		t.Errorf("%v sessions scheduled, expected about %v", n, want)
	}
	var getattr, shared, write int
	for i, s := range a {
		if s.Due <= 0 || s.Due >= length || (i > 0 && s.Due < a[i-1].Due) {
			t.Fatalf("session %d due at %v: not ascending inside (0, %v)", i, s.Due, length)
		}
		if s.Agent < 0 || s.Agent >= 40 || s.Ops < sessionMinOps || s.Ops > sessionMaxOps {
			t.Fatalf("session %d out of range: %+v", i, s)
		}
		if s.Getattr {
			getattr++
		}
		if s.Shared {
			shared++
		}
		if s.Write {
			write++
		}
	}
	share := func(what string, n int, want float64) {
		if got := float64(n) / float64(len(a)); got < want-0.03 || got > want+0.03 {
			t.Errorf("%s share %.3f, want about %.2f", what, got, want)
		}
	}
	share("getattr", getattr, sessionGetattrShare)
	share("shared", shared, sessionSharedShare)
	share("write", write, sessionWriteShare)
}
