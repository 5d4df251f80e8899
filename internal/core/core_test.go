package core

import (
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"spritefs/internal/cluster"
	"spritefs/internal/trace"
	"spritefs/internal/workload"
)

func workloadDefault() workload.Params { return workload.Default(1) }

// quickOpts keeps core tests fast: tiny cluster, one simulated hour.
var quickOpts = TraceOptions{Hours: 1, Scale: 0.15}

func TestRunTraceProducesAllAnalyses(t *testing.T) {
	r, err := RunTrace(1, quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	if r.Records == 0 {
		t.Fatal("empty trace")
	}
	if r.Overall.Opens == 0 || r.Overall.Users == 0 {
		t.Errorf("overall: %+v", r.Overall)
	}
	if r.Access.OpenTimes.N() == 0 {
		t.Error("no open-time samples")
	}
	if r.Activity.TenMinAll.AvgActiveUsers <= 0 {
		t.Error("no user activity")
	}
	if r.Overhead.ByteRatio(0) != 0 && r.Overhead.ByteRatio(0) != 1 {
		t.Errorf("sprite byte ratio = %g, want 0 (no sharing) or 1", r.Overhead.ByteRatio(0))
	}
}

func TestRunTraceRejectsBadNumber(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for trace 9")
		}
	}()
	RunTrace(9, quickOpts)
}

func TestRunTraceDeterministic(t *testing.T) {
	a, err := RunTrace(2, quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunTrace(2, quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Records != b.Records || a.Overall.Opens != b.Overall.Opens ||
		a.Overall.MBReadFiles != b.Overall.MBReadFiles {
		t.Errorf("nondeterministic: %d/%d records, %d/%d opens",
			a.Records, b.Records, a.Overall.Opens, b.Overall.Opens)
	}
	// A different seed offset must actually change the run.
	c, err := RunTrace(2, TraceOptions{Hours: 1, Scale: 0.15, SeedOffset: 1})
	if err != nil {
		t.Fatal(err)
	}
	if c.Overall.Opens == a.Overall.Opens && c.Records == a.Records {
		t.Error("seed offset had no effect")
	}
}

func TestRunCounterStudy(t *testing.T) {
	r := RunCounterStudy(CounterOptions{Days: 0.05, Scale: 0.15})
	if r.Table4.AvgSizeKB <= 0 {
		t.Errorf("avg cache size = %g", r.Table4.AvgSizeKB)
	}
	if r.Table5.TotalBytes == 0 {
		t.Error("no raw traffic recorded")
	}
	if r.Table10.FileOpens == 0 {
		t.Error("no opens at servers")
	}
	if r.NetUtilization <= 0 || r.NetUtilization >= 1 {
		t.Errorf("utilization = %g", r.NetUtilization)
	}
}

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/report_quick.golden and claims_quick.golden from this run")

// TestReportsRenderAllTables pins TraceReport of one quick trace followed
// by CounterTables of a small counter study byte for byte: every label,
// format and paper value the two reports print. Regenerate with
// -update-golden (`make golden`) only for an intended change to what the
// reports print.
func TestReportsRenderAllTables(t *testing.T) {
	r, err := RunTrace(1, quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	got := TraceReport([]*TraceResult{r}) + CounterTables(RunCounterStudy(CounterOptions{Days: 0.05, Scale: 0.15}))
	path := filepath.Join("testdata", "report_quick.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("reports differ from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
}

func TestScaleParams(t *testing.T) {
	p := scaleParams(workloadDefault(), 0.5)
	if p.NumClients != 20 || p.DailyUsers != 15 || p.OccasionalUsers != 20 {
		t.Errorf("half scale: %d clients %d+%d users", p.NumClients, p.DailyUsers, p.OccasionalUsers)
	}
	full := scaleParams(workloadDefault(), 1.0)
	if full.NumClients != 40 {
		t.Errorf("scale 1.0 changed the cluster: %d", full.NumClients)
	}
	tiny := scaleParams(workloadDefault(), 0.01)
	if tiny.NumClients < 2 {
		t.Errorf("scale floor violated: %d clients", tiny.NumClients)
	}
}

// TestAnalyzeTraceIsRunTracesAnalysisHalf rebuilds RunTrace's cluster by
// hand and feeds its per-server streams to AnalyzeTrace: the seam must
// yield RunTrace's result field for field, and so the same report.
func TestAnalyzeTraceIsRunTracesAnalysisHalf(t *testing.T) {
	want, err := RunTrace(1, quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.DefaultConfig(scaleParams(workload.TraceParams(1), quickOpts.Scale))
	cfg.SamplePeriod = 0
	cl := cluster.New(cfg)
	cl.Run(time.Duration(quickOpts.Hours * float64(time.Hour)))
	got, err := AnalyzeTrace(1, quickOpts.Hours, trace.Merge(cl.PerServerStreams()...))
	if err != nil {
		t.Fatal(err)
	}
	if a, b := TraceReport([]*TraceResult{got}), TraceReport([]*TraceResult{want}); a != b {
		t.Error("rendered reports differ")
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("AnalyzeTrace over the cluster's streams differs from RunTrace:\n got %+v\nwant %+v", got, want)
	}
}

// BenchmarkAnalyzeTrace times the Section 4 pipeline, every analyzer and
// the consistency simulations, over one captured two-hour trace of a
// ten-workstation community, the way the paper's post-processing scanned
// its trace files.
func BenchmarkAnalyzeTrace(b *testing.B) {
	p := workload.Default(2)
	p.NumClients, p.DailyUsers, p.OccasionalUsers = 10, 8, 8
	cfg := cluster.DefaultConfig(p)
	cfg.NumServers = 2
	c := cluster.New(cfg)
	c.Run(2 * time.Hour)
	recs := c.Trace()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AnalyzeTrace(0, 2, trace.NewSliceStream(recs)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(recs)), "records")
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(len(recs))*float64(b.N)/secs, "records/s")
	}
}

func TestAnalyzeTracePropagatesStreamErrors(t *testing.T) {
	boom := errors.New("boom")
	s := errStream{trace.NewSliceStream(make([]trace.Record, 3)), boom}
	if _, err := AnalyzeTrace(0, 0, s); !errors.Is(err, boom) {
		t.Errorf("AnalyzeTrace error = %v, want the stream's", err)
	}
}

// errStream yields its stream's records, then err instead of io.EOF.
type errStream struct {
	trace.Stream
	err error
}

func (e errStream) Next() (trace.Record, error) {
	r, err := e.Stream.Next()
	if err == io.EOF {
		err = e.err
	}
	return r, err
}
