package cluster

import (
	"strings"
	"testing"
	"time"

	"spritefs/internal/analysis"
	"spritefs/internal/trace"
	"spritefs/internal/workload"
)

// shortParams shrinks the community so integration tests run in
// milliseconds of wall time.
func shortParams(seed int64) workload.Params {
	p := workload.Default(seed)
	p.NumClients = 8
	p.DailyUsers = 6
	p.OccasionalUsers = 4
	p.SessionMedian = 8 * time.Minute
	p.GapMedian = 10 * time.Minute
	p.ThinkMean = 5 * time.Second
	p.EmitBackupNoise = true
	return p
}

func runShort(t *testing.T, seed int64, d time.Duration) *Cluster {
	t.Helper()
	cfg := DefaultConfig(shortParams(seed))
	cfg.NumServers = 2
	c := New(cfg)
	c.Run(d)
	return c
}

func TestClusterEndToEnd(t *testing.T) {
	c := runShort(t, 1, 2*time.Hour)
	recs := c.Trace()
	if len(recs) < 500 {
		t.Fatalf("only %d trace records", len(recs))
	}
	// Records are time-ordered per server stream after merge.
	merged, err := trace.Collect(trace.Merge(c.PerServerStreams()...))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(merged); i++ {
		if merged[i].Time < merged[i-1].Time {
			t.Fatalf("merged trace out of order at %d", i)
		}
	}
	// Backup noise was emitted raw but scrubbed by the merge.
	raw, scrubbed := 0, 0
	for _, r := range recs {
		if r.Flags&trace.FlagSelfTrace != 0 {
			raw++
		}
	}
	for _, r := range merged {
		if r.Flags&trace.FlagSelfTrace != 0 {
			scrubbed++
		}
	}
	if raw == 0 {
		t.Error("no backup noise emitted")
	}
	if scrubbed != 0 {
		t.Error("backup noise survived the merge")
	}
}

func TestClusterAnalysesProduceSaneShapes(t *testing.T) {
	c := runShort(t, 2, 3*time.Hour)
	merged := trace.Merge(c.PerServerStreams()...)
	ov := analysis.NewOverall()
	ap := analysis.NewAccessPatterns()
	lt := analysis.NewLifetimes()
	ua := analysis.NewUserActivity()
	ca := analysis.NewConsistencyActions()
	if err := analysis.Run(merged, ov, ap, lt, ua, ca); err != nil {
		t.Fatal(err)
	}
	if ov.Opens == 0 || ov.Closes == 0 {
		t.Fatal("no opens in trace")
	}
	if ov.MBReadFiles <= 0 || ov.MBWrittenFiles <= 0 {
		t.Errorf("traffic: read=%g written=%g MB", ov.MBReadFiles, ov.MBWrittenFiles)
	}
	// Reads should dominate writes (the paper's 4:1 application ratio,
	// loosely).
	if ov.MBReadFiles < ov.MBWrittenFiles {
		t.Errorf("writes exceed reads: %g < %g", ov.MBReadFiles, ov.MBWrittenFiles)
	}
	// Access mix: read-only must dominate.
	roAcc, _ := ap.ClassPct(analysis.ReadOnly)
	if roAcc < 50 {
		t.Errorf("read-only accesses = %.1f%%, expected dominant", roAcc)
	}
	// Sequential whole-file reads dominate read-only accesses.
	wf, _ := ap.SeqPct(analysis.ReadOnly, analysis.WholeFile)
	if wf < 50 {
		t.Errorf("whole-file read pct = %.1f%%", wf)
	}
	// Some files die young (temporaries).
	if lt.Deleted == 0 {
		t.Fatal("no deletions observed")
	}
	if lt.PctFilesUnder30s() < 20 {
		t.Errorf("files under 30s = %.1f%%", lt.PctFilesUnder30s())
	}
	// Activity plausible.
	if ua.TenMinAll.AvgActiveUsers <= 0 {
		t.Error("no active users")
	}
	if ca.FileOpens == 0 {
		t.Error("no file opens in consistency analyzer")
	}
}

func TestClusterCountersProduceSection5Tables(t *testing.T) {
	c := runShort(t, 3, 3*time.Hour)

	t4 := c.Table4Report()
	if t4.AvgSizeKB <= 0 {
		t.Errorf("table 4 avg size = %g", t4.AvgSizeKB)
	}
	if t4.ActiveIntervals15 == 0 {
		t.Error("no active intervals sampled")
	}

	t5 := c.Table5Report()
	if t5.TotalBytes == 0 {
		t.Fatal("no raw traffic")
	}
	sum := t5.FileReadPct + t5.FileWritePct + t5.PagingCacheableReadPct +
		t5.PagingBackingReadPct + t5.PagingBackingWritePct +
		t5.SharedReadPct + t5.SharedWritePct + t5.DirReadPct
	if sum < 99.9 || sum > 100.1 {
		t.Errorf("table 5 percentages sum to %g", sum)
	}
	if t5.FileReadPct <= t5.FileWritePct {
		t.Errorf("raw reads (%g%%) should exceed raw writes (%g%%)", t5.FileReadPct, t5.FileWritePct)
	}

	t6 := c.Table6Report()
	if t6.All.ReadMissPct <= 0 || t6.All.ReadMissPct >= 100 {
		t.Errorf("read miss pct = %g", t6.All.ReadMissPct)
	}
	if t6.All.WritebackPct <= 0 || t6.All.WritebackPct > 150 {
		t.Errorf("writeback pct = %g", t6.All.WritebackPct)
	}
	// Delayed writes must save some bytes (deleted temporaries).
	if t6.BytesSavedByDeletePct <= 0 {
		t.Errorf("no delayed-write savings: %g", t6.BytesSavedByDeletePct)
	}

	t7 := c.Table7Report()
	if t7.TotalBytes == 0 {
		t.Fatal("no server traffic")
	}
	if t7.ReadPct+t7.WritePct < 99.9 || t7.ReadPct+t7.WritePct > 100.1 {
		t.Errorf("table 7 read+write = %g", t7.ReadPct+t7.WritePct)
	}

	t9 := c.Table9Report()
	var pctSum float64
	for _, p := range t9.Pct {
		pctSum += p
	}
	if pctSum < 99 || pctSum > 101 {
		t.Errorf("table 9 reasons sum to %g", pctSum)
	}

	t10 := c.Table10Report()
	if t10.FileOpens == 0 {
		t.Fatal("no file opens at servers")
	}
	if t10.RecallPct < 0 || t10.RecallPct > 50 {
		t.Errorf("recall pct = %g", t10.RecallPct)
	}
}

func TestClusterDeterminism(t *testing.T) {
	runOnce := func() (int, int64) {
		c := runShort(t, 4, time.Hour)
		total := c.Net.Total()
		return len(c.Trace()), total.TotalBytes()
	}
	n1, b1 := runOnce()
	n2, b2 := runOnce()
	if n1 != n2 || b1 != b2 {
		t.Errorf("nondeterministic: %d/%d records, %d/%d bytes", n1, n2, b1, b2)
	}
}

func TestClusterCacheFiltersServerTraffic(t *testing.T) {
	c := runShort(t, 5, 3*time.Hour)
	t5 := c.Table5Report()
	t7 := c.Table7Report()
	// The caches must absorb a substantial share: server bytes well below
	// raw bytes (the paper measured ~50%).
	ratio := float64(t7.TotalBytes) / float64(t5.TotalBytes)
	if ratio >= 1.0 {
		t.Errorf("caches filtered nothing: server/raw = %.2f", ratio)
	}
	if ratio < 0.05 {
		t.Errorf("implausibly low server traffic: %.2f", ratio)
	}
}

func TestTraceSinkReceivesRecords(t *testing.T) {
	var n int
	cfg := DefaultConfig(shortParams(6))
	cfg.NumServers = 1
	cfg.TraceSink = func(trace.Record) { n++ }
	c := New(cfg)
	c.Run(time.Hour)
	if n == 0 {
		t.Error("sink received nothing")
	}
	if len(c.Trace()) != 0 {
		t.Error("records buffered despite sink")
	}
}

func TestClusterEdgeConfigurations(t *testing.T) {
	// A minimal cluster: one server, two clients, two users, zero-length
	// run — construction and teardown must be clean.
	p := workload.Default(99)
	p.NumClients, p.DailyUsers, p.OccasionalUsers = 2, 2, 0
	cfg := DefaultConfig(p)
	cfg.NumServers = 1
	c := New(cfg)
	c.Run(0)
	if c.Sim.Pending() != 0 {
		t.Errorf("pending events after zero-length run: %d", c.Sim.Pending())
	}
	// No user activity ran — only the system processes' boot page-ins.
	if got := c.Engine.Stats().ProgramsRun; got != 0 {
		t.Errorf("programs ran in a zero-length run: %d", got)
	}
	if t10 := c.Table10Report(); t10.FileOpens != 0 {
		t.Errorf("file opens in a zero-length run: %d", t10.FileOpens)
	}
	if t8 := c.Table8Report(); t8.FilePct != 0 || t8.VMPct != 0 {
		t.Errorf("idle cluster replacements: %+v", t8)
	}
}

func TestClusterRejectsZeroServers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for zero servers")
		}
	}()
	cfg := DefaultConfig(shortParams(1))
	cfg.NumServers = 0
	New(cfg)
}

// TestExternalRegistryRegistersNothing: a cluster that is part of a larger
// run leaves registration to that run's assembler — its own registry stays
// empty through construction and late AddClient calls alike — and refuses
// the sampler, which would sample that empty registry.
func TestExternalRegistryRegistersNothing(t *testing.T) {
	cfg := DefaultConfig(shortParams(1))
	cfg.SamplePeriod = 0
	cfg.ExternalRegistry = true
	c := New(cfg)
	c.AddClient(int32(len(c.Clients)))
	if n := c.Reg.Len(); n != 0 {
		t.Errorf("ExternalRegistry cluster registered %d metric instances", n)
	}

	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "SamplePeriod") || !strings.Contains(msg, "ExternalRegistry") {
			t.Errorf("panic %q does not name both fields", msg)
		}
	}()
	cfg.SamplePeriod = time.Minute
	New(cfg)
	t.Error("no panic for SamplePeriod with ExternalRegistry")
}
