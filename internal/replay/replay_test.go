package replay

import (
	"fmt"
	"math"
	"reflect"
	"strings"
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
	return Config{Name: name, NumServers: 2, FixedCachePages: fixedCache}
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

// registryLines is a result's prom registry dump minus the two stream
// counters that depend on how many records were offered rather than
// applied: a filtered replay reads the whole trace, a replay of the
// sub-trace only its part.
func registryLines(t *testing.T, r *Result) string {
	t.Helper()
	var b strings.Builder
	if err := r.Metrics.Registry().Dump(&b, "prom"); err != nil {
		t.Fatal(err)
	}
	var kept []string
	for _, l := range strings.Split(b.String(), "\n") {
		if !strings.Contains(l, "spritefs_replay_records_read_total") &&
			!strings.Contains(l, "spritefs_replay_records_filtered_total") {
			kept = append(kept, l)
		}
	}
	return strings.Join(kept, "\n")
}

// sameReplay reports every way two replays of the same records differ:
// the report, the applied count, the horizon, the virtual end and the
// registry (minus the read and filtered counters).
func sameReplay(t *testing.T, what string, got, want *Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Report, want.Report) {
		t.Errorf("%s: reports differ", what)
	}
	if got.Stats.Applied != want.Stats.Applied {
		t.Errorf("%s: applied %d, want %d", what, got.Stats.Applied, want.Stats.Applied)
	}
	if got.Horizon != want.Horizon || got.End != want.End {
		t.Errorf("%s: horizon/end %v/%v, want %v/%v", what, got.Horizon, got.End, want.Horizon, want.End)
	}
	if registryLines(t, got) != registryLines(t, want) {
		t.Errorf("%s: registries differ", what)
	}
}

// TestKeepClientsIsReplayOfSubtrace pins that a client filter is
// hermetic: replaying the whole trace with KeepClients of one partition's
// ids (client mod 3) equals replaying only that partition's records, paced
// and as fast as possible, and the three partitions together apply what
// the unfiltered replay applies. It catches a Keep check moved below the
// clock advance in Engine.Run (a dropped record still paces the replay,
// so horizons differ) and filtered records counted as applied.
func TestKeepClientsIsReplayOfSubtrace(t *testing.T) {
	live := capturedTrace(t)
	const n = 3
	ids := make([][]int32, n)
	parts := make([][]trace.Record, n)
	seen := map[int32]bool{}
	for _, r := range live.recs {
		if r.Client < 0 {
			continue
		}
		s := r.Client % n
		parts[s] = append(parts[s], r)
		if !seen[r.Client] {
			seen[r.Client] = true
			ids[s] = append(ids[s], r.Client)
		}
	}
	for _, afap := range []bool{false, true} {
		base := replayCfg("subtrace")
		base.AsFastAsPossible = afap
		whole, err := Run(base, trace.NewSliceStream(live.recs))
		if err != nil {
			t.Fatal(err)
		}
		var applied int64
		for s := range parts {
			cfg := base
			cfg.Keep = KeepClients(ids[s]...)
			filtered, err := Run(cfg, trace.NewSliceStream(live.recs))
			if err != nil {
				t.Fatal(err)
			}
			sub, err := Run(base, trace.NewSliceStream(parts[s]))
			if err != nil {
				t.Fatal(err)
			}
			sameReplay(t, fmt.Sprintf("afap=%v clients %v", afap, ids[s]), filtered, sub)
			applied += filtered.Stats.Applied
		}
		if applied != whole.Stats.Applied {
			t.Errorf("afap=%v: partitions applied %d records, the whole trace %d", afap, applied, whole.Stats.Applied)
		}
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
