package cluster

import (
	"slices"
	"testing"
	"time"

	"spritefs/internal/workload"
)

// smallRun runs a small fixed community, one big-file user included, for
// two simulated hours.
func smallRun(t *testing.T) *Cluster {
	t.Helper()
	return ablationRun(t, func(*Config) {})
}

// ablationRun runs smallRun's community under a mutated config.
func ablationRun(t *testing.T, mutate func(*Config)) *Cluster {
	t.Helper()
	p := workload.Default(8888)
	p.NumClients, p.DailyUsers, p.OccasionalUsers = 8, 6, 4
	p.EmitBackupNoise = false
	p.BigSimUsers = 1
	p.SimInputMB = 4
	p.SimOutputMB = 1
	cfg := DefaultConfig(p)
	cfg.NumServers = 2
	cfg.CollectTrace = false
	mutate(&cfg)
	c := New(cfg)
	c.Run(2 * time.Hour)
	return c
}

// mkSamples builds a cluster shell with hand-crafted sampler observations
// so the Table 4 aggregation can be verified exactly.
func mkSamples(samples []Sample) *Cluster {
	return &Cluster{Metrics: Metrics{Samples: samples}}
}

func TestIntervalChangesAggregation(t *testing.T) {
	const mb = 1 << 20
	samples := []Sample{
		// Window 0 is always screened out (cold start).
		{Time: 1 * time.Minute, Client: 0, CacheSize: 1 * mb, Active: true},
		// Window 1 (15-30 min): sizes 2,4,6 MB -> mean 4 MB, change 4 MB.
		{Time: 16 * time.Minute, Client: 0, CacheSize: 2 * mb, Active: true},
		{Time: 20 * time.Minute, Client: 0, CacheSize: 4 * mb, Active: false},
		{Time: 25 * time.Minute, Client: 0, CacheSize: 6 * mb, Active: false},
		// Window 2: inactive throughout -> screened out.
		{Time: 31 * time.Minute, Client: 0, CacheSize: 9 * mb, Active: false},
		// Client 1, window 1: constant size, active -> change 0.
		{Time: 17 * time.Minute, Client: 1, CacheSize: 3 * mb, Active: true},
		{Time: 28 * time.Minute, Client: 1, CacheSize: 3 * mb, Active: true},
	}
	c := mkSamples(samples)
	sizes, changes := c.intervalChanges(15 * time.Minute)
	if len(sizes) != 2 || len(changes) != 2 {
		t.Fatalf("got %d sizes, %d changes, want 2 each", len(sizes), len(changes))
	}
	// Windows come out in first-seen order of their (client, window) key.
	wantSizes, wantChanges := []float64{4 * mb, 3 * mb}, []float64{4 * mb, 0}
	if !slices.Equal(sizes, wantSizes) || !slices.Equal(changes, wantChanges) {
		t.Errorf("sizes %v changes %v, want %v and %v", sizes, changes, wantSizes, wantChanges)
	}
}

// TestTable4ReportIsBitStable pins the fold order behind Table 4: the
// Welford sums must see the windows in the same order on every call, or the
// averages and deviations differ in their last bits from one call to the
// next (they did while the windows came out of a map).
func TestTable4ReportIsBitStable(t *testing.T) {
	c := runShort(t, 11, 4*time.Hour)
	want := c.Table4Report()
	if want.ActiveIntervals15 < 20 {
		t.Fatalf("only %d active intervals; the test needs many windows to be meaningful", want.ActiveIntervals15)
	}
	for i := 0; i < 20; i++ {
		if got := c.Table4Report(); got != want {
			t.Fatalf("call %d: Table 4 changed between calls on one finished cluster:\n got %+v\nwant %+v", i, got, want)
		}
	}
}

func TestTable4ReportFromSyntheticSamples(t *testing.T) {
	const mb = 1 << 20
	var samples []Sample
	// Two clients, steady 8 MB caches, active, spanning windows 1-4.
	for cl := int32(0); cl < 2; cl++ {
		for m := 16; m <= 70; m += 5 {
			samples = append(samples, Sample{
				Time: time.Duration(m) * time.Minute, Client: cl,
				CacheSize: 8 * mb, Active: true,
			})
		}
	}
	c := mkSamples(samples)
	t4 := c.Table4Report()
	if t4.AvgSizeKB != 8*1024 {
		t.Errorf("avg = %g KB", t4.AvgSizeKB)
	}
	if t4.SDSizeKB != 0 || t4.Change15AvgKB != 0 {
		t.Errorf("steady caches show variation: sd=%g change=%g", t4.SDSizeKB, t4.Change15AvgKB)
	}
	if t4.ActiveIntervals15 == 0 {
		t.Error("no active intervals")
	}
}

func TestTable5PercentagesSumToHundred(t *testing.T) {
	c := smallRun(t)
	t5 := c.Table5Report()
	sum := t5.FileReadPct + t5.FileWritePct + t5.PagingCacheableReadPct +
		t5.PagingBackingReadPct + t5.PagingBackingWritePct +
		t5.SharedReadPct + t5.SharedWritePct + t5.DirReadPct
	if sum < 99.9 || sum > 100.1 {
		t.Errorf("sum = %g", sum)
	}
	if t5.UncacheablePct > 100 || t5.PagingPct > 100 {
		t.Errorf("derived pcts out of range: %+v", t5)
	}
}

func TestServerStorageAbsorbsRepeatedFetches(t *testing.T) {
	st := smallRun(t).ServerStorageReport()
	if st.DiskReads == 0 && st.DiskWrites == 0 {
		t.Fatal("server disks never touched")
	}
	// The server cache must absorb a visible share of client fetches.
	if st.ReadHitPct <= 0 {
		t.Errorf("server cache hit rate = %.1f%%", st.ReadHitPct)
	}
}

func TestTable9PercentagesAndAges(t *testing.T) {
	c := smallRun(t)
	t9 := c.Table9Report()
	var sum float64
	for r, p := range t9.Pct {
		if p < 0 || p > 100 {
			t.Errorf("reason %d pct = %g", r, p)
		}
		sum += p
		if t9.AgeSec[r] < 0 {
			t.Errorf("reason %d negative age", r)
		}
	}
	if sum < 99.9 || sum > 100.1 {
		t.Errorf("reasons sum to %g", sum)
	}
	// Delayed writes must have ages at or past the 30-second policy window
	// minus the cleaning granularity.
	if t9.Pct[0] > 0 && t9.AgeSec[0] < 25 {
		t.Errorf("delay cleanings at %g s, policy is 30 s", t9.AgeSec[0])
	}
}

func TestEmptyClusterReportsAreZero(t *testing.T) {
	c := mkSamples(nil)
	t4 := c.Table4Report()
	if t4.AvgSizeKB != 0 || t4.ActiveIntervals15 != 0 {
		t.Errorf("empty samples produced %+v", t4)
	}
}
