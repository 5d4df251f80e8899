package harness

import (
	"bytes"
	"compress/gzip"
	"runtime"
	"testing"
	"time"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	cases := []struct {
		n     int
		wantP float64
		wantV float64
	}{
		{1000, 99, 990}, // exactly ten beyond p99
		{999, 95, 950},  // nine beyond p99 (rank 990 of 999): step down
		{200, 95, 190},  // ten beyond p95
		{199, 90, 180},  // nine beyond p95
		{100, 90, 90},
		{40, 75, 30},
		{20, 50, 10},
		{12, 50, 6}, // no rung has ten beyond: the median
	}
	for _, c := range cases {
		p, v := TailPercentile(seq(c.n))
		if p != c.wantP || v != c.wantV {
			t.Errorf("n=%d: got p%v=%v, want p%v=%v", c.n, p, v, c.wantP, c.wantV)
		}
		if _, beyond := Percentile(seq(c.n), p); c.n >= 20 && beyond < MinBeyond {
			t.Errorf("n=%d: p%v has only %d samples beyond it", c.n, p, beyond)
		}
	}
}

func TestMedianLeavesInputAlone(t *testing.T) {
	in := []float64{5, 1, 4}
	if m := Median(in); m != 4 {
		t.Errorf("median = %v, want 4", m)
	}
	if in[0] != 5 || in[1] != 1 {
		t.Errorf("Median reordered its input: %v", in)
	}
	if m := Median([]float64{1, 2, 3, 10}); m != 2.5 {
		t.Errorf("even median = %v, want 2.5", m)
	}
}

func TestSpanSelfTime(t *testing.T) {
	tr := NewTracer("t")
	// Hand-built spans: outer [0,100] in layer a with children [10,30] (b)
	// and [40,90] (a), the latter with a grandchild [50,60] (b).
	tr.spans = []Span{
		{Name: "outer", Layer: "a", Start: 0, End: 100, Parent: -1},
		{Name: "c1", Layer: "b", Start: 10, End: 30, Parent: 0},
		{Name: "c2", Layer: "a", Start: 40, End: 90, Parent: 0},
		{Name: "g", Layer: "b", Start: 50, End: 60, Parent: 2},
	}
	self := tr.SelfByLayer()
	if self["a"] != 30+40 || self["b"] != 20+10 {
		t.Errorf("self times = %v, want a=70 b=30", self)
	}
	if got := tr.Total("b", "c1"); got != 20 {
		t.Errorf("Total(b,c1) = %v, want 20", got)
	}
}

func TestTracerNestsByCallOrderAndNilIsInert(t *testing.T) {
	var none *Tracer
	none.Begin("x", "y")() // must not panic
	if none.Spans() != nil {
		t.Error("nil tracer recorded spans")
	}
	tr := NewTracer("run")
	endOuter := tr.Begin("a", "outer")
	endInner := tr.Begin("b", "inner")
	endInner()
	endOuter()
	tr.Begin("a", "next")()
	s := tr.Spans()
	if len(s) != 3 || s[0].Parent != -1 || s[1].Parent != 0 || s[2].Parent != -1 {
		t.Fatalf("parents wrong: %+v", s)
	}
	if s[1].Start < s[0].Start || s[1].End > s[0].End || s[0].Run != "run" {
		t.Errorf("inner span not inside outer: %+v", s)
	}
}

// protoBuilder writes just enough protobuf to synthesize a pprof profile.
type protoBuilder struct{ bytes.Buffer }

func (b *protoBuilder) varint(v uint64) {
	for v >= 0x80 {
		b.WriteByte(byte(v) | 0x80)
		v >>= 7
	}
	b.WriteByte(byte(v))
}
func (b *protoBuilder) intField(field int, v uint64) { b.varint(uint64(field) << 3); b.varint(v) }
func (b *protoBuilder) bytesField(field int, p []byte) {
	b.varint(uint64(field)<<3 | 2)
	b.varint(uint64(len(p)))
	b.Write(p)
}
func packed(vs ...uint64) []byte {
	var b protoBuilder
	for _, v := range vs {
		b.varint(v)
	}
	return b.Bytes()
}

// syntheticProfile builds a gzipped CPU profile. Each stack lists function
// names leaf first; a name containing "<" is an inlined pair "inner<outer"
// sharing one location.
func syntheticProfile(stacks [][]string, nanos []uint64) []byte {
	strs := []string{""}
	strIdx := map[string]uint64{"": 0}
	intern := func(s string) uint64 {
		if i, ok := strIdx[s]; ok {
			return i
		}
		strIdx[s] = uint64(len(strs))
		strs = append(strs, s)
		return strIdx[s]
	}
	var prof protoBuilder
	for _, st := range [][2]string{{"samples", "count"}, {"cpu", "nanoseconds"}} {
		var vt protoBuilder
		vt.intField(1, intern(st[0]))
		vt.intField(2, intern(st[1]))
		prof.bytesField(1, vt.Bytes())
	}
	funcID := map[string]uint64{}
	var funcs, locs protoBuilder
	function := func(name string) uint64 {
		if id, ok := funcID[name]; ok {
			return id
		}
		id := uint64(len(funcID) + 1)
		funcID[name] = id
		var f protoBuilder
		f.intField(1, id)
		f.intField(2, intern(name))
		funcs.bytesField(5, f.Bytes())
		return id
	}
	nextLoc := uint64(1)
	for i, stack := range stacks {
		var ids []uint64
		for _, frame := range stack {
			var loc protoBuilder
			loc.intField(1, nextLoc)
			names := []string{frame}
			if a, b, ok := bytes.Cut([]byte(frame), []byte("<")); ok {
				names = []string{string(a), string(b)}
			}
			for _, n := range names {
				var line protoBuilder
				line.intField(1, function(n))
				loc.bytesField(4, line.Bytes())
			}
			locs.bytesField(4, loc.Bytes())
			ids = append(ids, nextLoc)
			nextLoc++
		}
		var s protoBuilder
		s.bytesField(1, packed(ids...))
		s.bytesField(2, packed(1, nanos[i]))
		prof.bytesField(2, s.Bytes())
	}
	prof.Write(locs.Bytes())
	prof.Write(funcs.Bytes())
	for _, s := range strs {
		prof.bytesField(6, []byte(s))
	}
	prof.intField(12, 10_000_000)
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(prof.Bytes())
	zw.Close()
	return gz.Bytes()
}

func TestFoldCPUChargesInnermostListedFrame(t *testing.T) {
	raw := syntheticProfile([][]string{
		// runtime work under fscache, itself under client: fscache's.
		{"runtime.memclrNoHeapPointers", "spritefs/internal/fscache.(*Cache).Read", "spritefs/internal/client.(*Client).ReadAt", "main.main"},
		// an unlisted helper package is passed over: sim's.
		{"spritefs/internal/stats.(*Welford).Add", "spritefs/internal/sim.(*Sim).Step", "spritefs/internal/cluster.(*Cluster).Run"},
		// inlined: the inner function of the pair is the innermost frame.
		{"spritefs/internal/netsim.(*Network).charge<spritefs/internal/server.(*Server).Open", "spritefs/internal/client.(*Client).Open"},
		// the harness's own load generator, calling into nothing listed below it.
		{"runtime.chansend", "spritefs/bench/workloads.(*generator).do"},
		// a subpackage is charged to its module.
		{"spritefs/internal/faults/check.Verify"},
		// no frame of ours at all: the collector.
		{"runtime.gcDrain", "runtime.gcBgMarkWorker"},
	}, []uint64{100, 200, 300, 400, 500, 600})
	classify := ModuleClassifier([]string{"fscache", "client", "sim", "cluster", "netsim", "server", "faults"}, "harness")
	got, total, err := FoldCPU(raw, classify)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]time.Duration{
		"fscache": 100, "sim": 200, "netsim": 300, "harness": 400, "faults": 500, Background: 600,
	}
	if total != 2100 {
		t.Errorf("total = %v, want 2100ns", total)
	}
	if len(got) != len(want) {
		t.Errorf("got %v, want %v", got, want)
	}
	var sum time.Duration
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%q charged %v, want %v", k, got[k], w)
		}
		sum += got[k]
	}
	if sum != total {
		t.Errorf("rows sum to %v, profile total is %v", sum, total)
	}
}

func TestFoldCPURejectsGarbage(t *testing.T) {
	if _, _, err := FoldCPU([]byte{0x0a, 0xff, 0xff}, func(string) (string, bool) { return "", false }); err == nil {
		t.Error("truncated profile decoded without error")
	}
}

func TestMemSamplerSeesAPeakThatIsGoneAtStop(t *testing.T) {
	const mb = 64
	m := StartMemSampler()
	b := make([]byte, mb<<20)
	for i := 0; i < len(b); i += 4096 {
		b[i] = 1
	}
	time.Sleep(50 * time.Millisecond)
	runtime.KeepAlive(b)
	b = nil
	runtime.GC()
	peak := m.Stop()
	if now := float64(memInUse()) / (1 << 20); peak < mb || now > peak-mb/2 {
		t.Errorf("peak %.1f MB around an allocation of %d MB, %.1f MB in use after it", peak, mb, now)
	}
}

func TestJudge(t *testing.T) {
	cases := []struct {
		a, b   float64
		better string
		bound  float64
		want   Verdict
	}{
		{10, 10.9, "lower", 0.10, Same},
		{10, 11.1, "lower", 0.10, Worse},
		{10, 8.9, "lower", 0.10, Better},
		{100, 91, "higher", 0.10, Same},
		{100, 89, "higher", 0.10, Worse},
		{100, 111, "higher", 0.10, Better},
	}
	for _, c := range cases {
		if got := Judge(c.a, c.b, c.better, c.bound); got != c.want {
			t.Errorf("Judge(%v,%v,%s,%v) = %s, want %s", c.a, c.b, c.better, c.bound, got, c.want)
		}
	}
}

func TestCompare(t *testing.T) {
	spec := &Spec{
		EndToEnd: []MetricSpec{{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.1}},
		PerLayer: []MetricSpec{{Name: "sim.events", Unit: "count"}, {Name: "sim.cpu_s", Unit: "s"}},
	}
	run := func(wall float64, digest string, events float64) *RunSet {
		return &RunSet{Workloads: []WorkloadRun{{
			Name: "w", Digest: digest,
			EndToEnd: &Result{Correct: true, Attempted: 5, Metrics: map[string]Metric{"wall_s": {wall, "s"}}},
			PerLayer: &Result{Correct: true, Metrics: map[string]Metric{"sim.events": {events, "count"}, "sim.cpu_s": {wall / 2, "s"}}},
		}}}
	}
	if rows, ok := Compare(spec, run(10, "d", 7), run(10.5, "d", 7)); !ok || len(rows) != 1 || rows[0].Verdict != Same {
		t.Errorf("within bound: ok=%v rows=%+v", ok, rows)
	}
	if rows, ok := Compare(spec, run(10, "d", 7), run(12, "d", 7)); ok || rows[0].Verdict != Worse {
		t.Errorf("beyond bound: ok=%v rows=%+v", ok, rows)
	}
	if _, ok := Compare(spec, run(10, "d", 7), run(8, "d", 7)); !ok {
		t.Error("an improvement failed the comparison")
	}
	if rows, ok := Compare(spec, run(10, "d", 7), run(10, "e", 7)); ok || rows[len(rows)-1].Metric != "digest" {
		t.Errorf("digest change: ok=%v rows=%+v", ok, rows)
	}
	if rows, ok := Compare(spec, run(10, "d", 7), run(10, "d", 8)); ok || rows[len(rows)-1].Metric != "sim.events" {
		t.Errorf("count change: ok=%v rows=%+v", ok, rows)
	}
	// A wall-clock workload has no digest; its counts may differ.
	if _, ok := Compare(spec, run(10, "", 7), run(10, "", 8)); !ok {
		t.Error("counts of a digest-less workload were held to equality")
	}
	if _, ok := Compare(spec, run(10, "d", 7), &RunSet{}); ok {
		t.Error("a missing workload passed")
	}
}
