package cluster

import (
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"spritefs/internal/metrics"
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

// synthetic is a cluster shell whose Table 4 columns the test sets by
// hand: real workstations, for their ids and their order, sampled from a
// private registry that holds only the three families Table 4 reads.
type synthetic struct {
	c   *Cluster
	reg *metrics.Registry
	ws  map[int32]*synthWS
}

type synthWS struct{ size, reads, writes int64 }

func newSynthetic(ids ...int32) *synthetic {
	c := NewSystem(Config{NumServers: 1})
	for _, id := range ids {
		c.AddClient(id)
	}
	reg := metrics.New()
	c.MetricSampler = metrics.NewSampler(reg, nil)
	return &synthetic{c: c, reg: reg, ws: map[int32]*synthWS{}}
}

// set registers workstation id's columns on first use (it is sampled from
// the next row on) and gives it this size; an active workstation reads a
// block, so its operation count moves.
func (s *synthetic) set(id int32, size int64, active bool) {
	w := s.ws[id]
	if w == nil {
		w = &synthWS{}
		s.ws[id] = w
		ls := metrics.Labels{metrics.L("client", strconv.Itoa(int(id)))}
		all := append(ls[:len(ls):len(ls)], metrics.L("scope", "all"))
		s.reg.IntVar(metrics.Desc{Name: "spritefs_cache_size_bytes", Kind: metrics.Gauge}, ls, &w.size)
		s.reg.IntVar(metrics.Desc{Name: "spritefs_cache_read_ops_total", Kind: metrics.Counter}, all, &w.reads)
		s.reg.IntVar(metrics.Desc{Name: "spritefs_cache_write_ops_total", Kind: metrics.Counter}, all, &w.writes)
	}
	w.size = size
	if active {
		w.reads++
	}
}

// at takes one row at the given minute.
func (s *synthetic) at(minute int) { s.c.MetricSampler.Sample(time.Duration(minute) * time.Minute) }

func TestIntervalChangesAggregation(t *testing.T) {
	const mb = 1 << 20
	s := newSynthetic(0, 1)
	rows := []struct {
		minute       int
		size0, size1 int64
		act0, act1   bool
	}{
		// Window 0 is the cold start, screened out.
		{1, 1 * mb, 3 * mb, true, true},
		// Window 1 (15-30 min): client 0's sizes 2,4,6 MB -> mean 4 MB,
		// change 4 MB; client 1 constant and active -> change 0.
		{16, 2 * mb, 3 * mb, true, true},
		{20, 4 * mb, 3 * mb, false, false},
		{25, 6 * mb, 3 * mb, false, true},
		// Window 2: inactive throughout -> screened out.
		{31, 9 * mb, 3 * mb, false, false},
	}
	for _, r := range rows {
		s.set(0, r.size0, r.act0)
		s.set(1, r.size1, r.act1)
		s.at(r.minute)
	}
	sizes, changes := s.c.intervalChanges(15 * time.Minute)
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
	// Two clients, steady 8 MB caches, active, spanning windows 1-4.
	s := newSynthetic(0, 1)
	for m := 16; m <= 70; m += 5 {
		s.set(0, 8*mb, true)
		s.set(1, 8*mb, true)
		s.at(m)
	}
	t4 := s.c.Table4Report()
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

// TestLateWorkstationColdStartScreened: a workstation that comes up mid-run
// (replay brings one up at its first record) starts at the minimum cache
// size, so the window of its first sample is screened out like window 0
// of a workstation up from the start.
func TestLateWorkstationColdStartScreened(t *testing.T) {
	const mb = 1 << 20
	s := newSynthetic(0, 1)
	for m := 5; m <= 90; m += 5 {
		s.set(0, 8*mb, true)
		switch {
		case m == 40: // client 1 comes up cold, in window 2 (30-45 min)
			s.set(1, 1*mb, true)
		case m > 40:
			s.set(1, 8*mb, true)
		}
		s.at(m)
	}
	t4 := s.c.Table4Report()
	// Client 0 counts windows 1-6, client 1 windows 3-6: every one a
	// steady 8 MB.
	if t4.ActiveIntervals15 != 10 || t4.AvgSizeKB != 8*1024 || t4.Change15MaxKB != 0 {
		t.Errorf("got %d intervals, avg %g KB, max change %g KB; want 10, 8192 and 0 (client 1's cold-start window counted?)",
			t4.ActiveIntervals15, t4.AvgSizeKB, t4.Change15MaxKB)
	}
}

// TestDefaultSamplerKeepsTable4Families: DefaultConfig samples only what
// Table 4 reads, so a two-week counter study does not keep the whole
// registry every minute. Per workstation that is its size and its read
// and write op counts in both scopes.
func TestDefaultSamplerKeepsTable4Families(t *testing.T) {
	c := runShort(t, 12, 10*time.Minute)
	var tsv strings.Builder
	if err := c.MetricSampler.WriteTSV(&tsv); err != nil {
		t.Fatal(err)
	}
	header, _, _ := strings.Cut(tsv.String(), "\n")
	if got, want := strings.Count(header, "\t"), 5*len(c.Clients); got != want {
		t.Errorf("the default sampler holds %d columns, want %d (5 for each of %d workstations)", got, want, len(c.Clients))
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
	for _, c := range []*Cluster{{}, newSynthetic(0, 1).c} {
		if t4 := c.Table4Report(); t4 != (Table4{}) {
			t.Errorf("no samples produced %+v", t4)
		}
	}
}
