package replay

import (
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"spritefs/internal/cluster"
	"spritefs/internal/trace"
	"spritefs/internal/workload"
)

// fixedCache pins live and replayed caches at the same size so the replay
// comparison is not confounded by dynamic FS/VM page trading (the live
// run's untraced paging traffic shifts the cache boundary).
const fixedCache = 2048 // 8 MB

// liveCapture is one live run and its merged trace, shared across tests
// (generating it dominates the package's test time).
type liveCapture struct {
	report cluster.Report
	recs   []trace.Record
}

var (
	captureOnce sync.Once
	capture     liveCapture
)

// capturedTrace runs the short live cluster once with tracing on and
// returns its report plus the merged, scrubbed trace — the same pipeline
// as tracegen | Merge.
func capturedTrace(t testing.TB) liveCapture {
	t.Helper()
	captureOnce.Do(func() {
		p := workload.Default(1)
		p.NumClients = 8
		p.DailyUsers = 6
		p.OccasionalUsers = 4
		p.SessionMedian = 8 * time.Minute
		p.GapMedian = 10 * time.Minute
		p.ThinkMean = 5 * time.Second
		cfg := cluster.DefaultConfig(p)
		cfg.NumServers = 2
		cfg.SamplePeriod = 0
		cfg.FixedCachePages = fixedCache
		c := cluster.New(cfg)
		c.Run(2 * time.Hour)
		recs, err := trace.Collect(trace.Merge(c.PerServerStreams()...))
		if err != nil {
			panic(err)
		}
		capture = liveCapture{report: c.Report(), recs: recs}
	})
	if len(capture.recs) == 0 {
		t.Fatal("live capture produced no trace records")
	}
	return capture
}

// replayCfg mirrors the capture cluster's configuration.
func replayCfg(name string) Config {
	return Config{Name: name, NumServers: 2, Seed: 1, FixedCachePages: fixedCache}
}

// TestReplayReproducesLiveRun is the fidelity bound the subsystem promises:
// record-level quantities replay exactly, cache ratios within the tolerance
// that the untraced paging traffic accounts for (see the package comment
// and README).
func TestReplayReproducesLiveRun(t *testing.T) {
	live := capturedTrace(t)
	res, err := Run(replayCfg("fidelity"), trace.NewSliceStream(live.recs))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Applied == 0 || res.Stats.Applied != res.Stats.Read-res.Stats.Scrubbed {
		t.Fatalf("stats don't add up: %+v", res.Stats)
	}
	if res.Stats.Errors != 0 || res.Stats.UnknownHandle != 0 {
		t.Fatalf("replay of a live trace must be clean: %+v", res.Stats)
	}

	// Exact: every open the live servers saw is re-issued.
	if got, want := res.Report.Table10.FileOpens, live.report.Table10.FileOpens; got != want {
		t.Errorf("file opens: replay %d, live %d", got, want)
	}
	// Exact: concurrent write-sharing is a pure function of the replayed
	// open/close/write order.
	if got, want := res.Report.Table10.CWSPct, live.report.Table10.CWSPct; math.Abs(got-want) > 1e-9 {
		t.Errorf("CWS rate: replay %g, live %g", got, want)
	}

	// Tolerance: cache ratios shift slightly because the live cache also
	// held untraced paging pages. Documented bound: 5 percentage points.
	const tol = 5.0
	type ratio struct {
		name      string
		got, want float64
	}
	for _, r := range []ratio{
		{"read miss %", res.Report.Table6.All.ReadMissPct, live.report.Table6.All.ReadMissPct},
		{"read miss traffic %", res.Report.Table6.All.ReadMissTrafficPct, live.report.Table6.All.ReadMissTrafficPct},
		{"writeback %", res.Report.Table6.All.WritebackPct, live.report.Table6.All.WritebackPct},
	} {
		t.Logf("%s: replay %.2f, live %.2f", r.name, r.got, r.want)
		if math.Abs(r.got-r.want) > tol {
			t.Errorf("%s: replay %.2f vs live %.2f exceeds %.1f-point tolerance", r.name, r.got, r.want, tol)
		}
	}
}

func TestReplayIsDeterministic(t *testing.T) {
	live := capturedTrace(t)
	a, err := Run(replayCfg("a"), trace.NewSliceStream(live.recs))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(replayCfg("a"), trace.NewSliceStream(live.recs))
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats != b.Stats {
		t.Fatalf("stats diverge:\n%+v\n%+v", a.Stats, b.Stats)
	}
	if !reflect.DeepEqual(a.Report, b.Report) {
		t.Fatal("reports diverge between identical replays")
	}
	if ReplayTable(a).String() != ReplayTable(b).String() {
		t.Fatal("rendered reports diverge")
	}
}

func TestSpeedScalesVirtualTime(t *testing.T) {
	live := capturedTrace(t)
	base, err := Run(replayCfg("base"), trace.NewSliceStream(live.recs))
	if err != nil {
		t.Fatal(err)
	}
	cfg := replayCfg("fast")
	cfg.Speed = 60
	fast, err := Run(cfg, trace.NewSliceStream(live.recs))
	if err != nil {
		t.Fatal(err)
	}
	if fast.Stats.Applied != base.Stats.Applied {
		t.Errorf("speed changed the record count: %d vs %d", fast.Stats.Applied, base.Stats.Applied)
	}
	// 2 hours of trace at 60x lands near 2 minutes of virtual time.
	if fast.Horizon <= 0 || fast.Horizon > base.Horizon/30 {
		t.Errorf("horizon %v not compressed from %v", fast.Horizon, base.Horizon)
	}
	// Compressing time compresses the 30-second delayed-write windows, so
	// less data should die in the cache — but the replayed ops are identical.
	if fast.Report.Table10.FileOpens != base.Report.Table10.FileOpens {
		t.Errorf("opens differ under speed scaling")
	}
}

func TestAsFastAsPossible(t *testing.T) {
	live := capturedTrace(t)
	cfg := replayCfg("afap")
	cfg.AsFastAsPossible = true
	res, err := Run(cfg, trace.NewSliceStream(live.recs))
	if err != nil {
		t.Fatal(err)
	}
	if res.Horizon != 0 {
		t.Errorf("AFAP should freeze virtual time at 0, horizon %v", res.Horizon)
	}
	base, err := Run(replayCfg("base"), trace.NewSliceStream(live.recs))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Applied != base.Stats.Applied {
		t.Errorf("AFAP changed the record count: %d vs %d", res.Stats.Applied, base.Stats.Applied)
	}
	if res.Report.Table10.FileOpens != base.Report.Table10.FileOpens {
		t.Errorf("AFAP changed the open count")
	}
}

func TestRecordFilters(t *testing.T) {
	live := capturedTrace(t)

	cfg := replayCfg("clients")
	cfg.Keep = KeepClients(0, 1)
	res, err := Run(cfg, trace.NewSliceStream(live.recs))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Filtered == 0 {
		t.Fatal("client filter dropped nothing")
	}
	if got := res.Stats.Read - res.Stats.Scrubbed - res.Stats.Filtered; got != res.Stats.Applied {
		t.Fatalf("filter accounting: %+v", res.Stats)
	}
	cfg = replayCfg("kinds")
	cfg.Keep = And(KeepKinds(trace.KindOpen, trace.KindClose, trace.KindRead,
		trace.KindWrite, trace.KindReposition), KeepClients(0, 1))
	res2, err := Run(cfg, trace.NewSliceStream(live.recs))
	if err != nil {
		t.Fatal(err)
	}
	if res2.Stats.Applied == 0 || res2.Stats.Applied >= res.Stats.Read {
		t.Fatalf("kind filter accounting: %+v", res2.Stats)
	}
}

func TestReplayEngineRunsOnce(t *testing.T) {
	e := New(replayCfg("once"))
	if _, err := e.Run(trace.NewSliceStream(nil)); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(trace.NewSliceStream(nil)); err == nil {
		t.Fatal("second Run should fail")
	}
}
