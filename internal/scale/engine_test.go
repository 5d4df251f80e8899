package scale_test

import (
	"bytes"
	"fmt"
	"math"
	"testing"
	"time"

	"spritefs/internal/cluster"
	"spritefs/internal/scale"
	"spritefs/internal/workload"
)

// testConfig is a small sharded topology that still exercises every code
// path: multiple shards, remote traffic, barriers.
func testConfig(seed int64, shards int) scale.Config {
	p := workload.Default(seed)
	p.NumClients = 8 * shards
	p.DailyUsers = 6 * shards
	p.OccasionalUsers = 2 * shards
	p.BigSimUsers = 1
	return scale.Config{
		Base:            p,
		Shards:          shards,
		ServersPerShard: 2,
	}
}

// fingerprint renders everything the byte-identity guarantee covers: the
// report tables and the full Prometheus metrics dump.
func fingerprint(t *testing.T, e *scale.Engine) string {
	t.Helper()
	r := e.Report()
	var buf bytes.Buffer
	buf.WriteString(r.Table().String())
	buf.WriteString(r.ExecTable().String())
	if err := e.Reg.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return buf.String()
}

// TestParallelMatchesSequential pins the tentpole guarantee: the parallel
// executor produces byte-identical reports and metric dumps to the
// sequential executor for equal seeds, at 1, 4 and 8 workers. `make
// scalecheck` runs this under -race.
func TestParallelMatchesSequential(t *testing.T) {
	const horizon = 30 * time.Minute
	seq := scale.MustNew(testConfig(42, 4))
	seqStats := seq.Run(scale.RunOptions{Horizon: horizon})
	if seqStats.Workers != 0 {
		t.Fatalf("sequential run reported %d workers", seqStats.Workers)
	}
	want := fingerprint(t, seq)
	if seqStats.Exec.Routed == 0 {
		t.Fatal("no cross-shard messages were exchanged; the test exercises nothing")
	}

	for _, workers := range []int{1, 4, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			par := scale.MustNew(testConfig(42, 4))
			st := par.Run(scale.RunOptions{Horizon: horizon, Parallel: true, Workers: workers})
			if st.Workers < 1 {
				t.Fatalf("parallel run reported %d workers", st.Workers)
			}
			if got := fingerprint(t, par); got != want {
				t.Errorf("parallel (workers=%d) output differs from sequential\n--- sequential ---\n%s\n--- parallel ---\n%s",
					workers, want, got)
			}
			if st.Exec != seqStats.Exec {
				t.Errorf("exec stats differ: sequential %+v parallel %+v", seqStats.Exec, st.Exec)
			}
			if st.Events != seqStats.Events || st.Events == 0 {
				t.Errorf("event counts differ: sequential %d parallel %d", seqStats.Events, st.Events)
			}
		})
	}
}

// TestDeterministicAcrossRuns pins run-to-run determinism of the whole
// stack for a fixed executor.
func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() string {
		e := scale.MustNew(testConfig(7, 3))
		e.Run(scale.RunOptions{Horizon: 20 * time.Minute, Parallel: true})
		return fingerprint(t, e)
	}
	if a, b := run(), run(); a != b {
		t.Error("two runs with equal seeds produced different output")
	}
	e := scale.MustNew(testConfig(8, 3))
	e.Run(scale.RunOptions{Horizon: 20 * time.Minute, Parallel: true})
	if fingerprint(t, e) == run() {
		t.Error("different seeds produced identical output; fingerprint is insensitive")
	}
}

// TestSingleShardMatchesCluster pins that a 1-shard topology is the plain
// cluster: no remote traffic is generated, no extra rng draws happen, and
// the per-shard aggregates equal a direct cluster.Run with the same
// parameters.
func TestSingleShardMatchesCluster(t *testing.T) {
	const horizon = 30 * time.Minute
	p := workload.Default(11)
	p.NumClients = 10
	p.DailyUsers = 7
	p.OccasionalUsers = 2
	p.BigSimUsers = 1

	e := scale.MustNew(scale.Config{Base: p, Shards: 1, ServersPerShard: 2})
	e.Run(scale.RunOptions{Horizon: horizon})
	rep := e.Report()
	if rep.Exec.Routed != 0 || rep.PerShard[0].Remote.OpsIssued != 0 {
		t.Fatalf("single-shard run generated remote traffic: %+v", rep.PerShard[0].Remote)
	}

	ccfg := cluster.DefaultConfig(workload.Split(p, 1, 0))
	ccfg.CollectTrace = false
	ccfg.SamplePeriod = 0
	ccfg.NumServers = 2
	c := cluster.New(ccfg)
	c.Run(horizon)

	var opens, recalls int64
	for _, srv := range c.Servers {
		st := srv.Stats()
		opens += st.FileOpens
		recalls += st.Recalls
	}
	if rep.TotalOpens != opens {
		t.Errorf("opens: scale %d, cluster %d", rep.TotalOpens, opens)
	}
	if rep.TotalRecalls != recalls {
		t.Errorf("recalls: scale %d, cluster %d", rep.TotalRecalls, recalls)
	}
}

// TestConfigValidation pins the declarative config's guard rails.
func TestConfigValidation(t *testing.T) {
	if _, err := scale.New(scale.Config{Base: workload.Default(1)}); err == nil {
		t.Error("Shards=0 accepted")
	}
	bad := testConfig(1, 2)
	bad.Tiers.Site = scale.Tier{Latency: -time.Millisecond, BandwidthBps: 1e6}
	if _, err := scale.New(bad); err == nil {
		t.Error("negative site latency accepted")
	}
	// One rule set for every topology: a flat one rejects a bad WAN price
	// too.
	bad = testConfig(1, 2)
	bad.Tiers = scale.DefaultTiers()
	bad.Tiers.WAN.BandwidthBps = -1
	if _, err := scale.New(bad); err == nil {
		t.Error("negative WAN bandwidth accepted")
	}
	// NaN compares false with everything, so it must not slip past a
	// "<= 0" test; a run would then stamp arrivals before their clock.
	bad = testConfig(1, 4)
	bad.Sites = 2
	bad.Tiers = scale.DefaultTiers()
	bad.Tiers.Site.BandwidthBps = math.NaN()
	if _, err := scale.New(bad); err == nil {
		t.Error("NaN site bandwidth accepted")
	}
	tiny := testConfig(1, 2)
	tiny.Base.NumClients = 1
	tiny.Base.DailyUsers = 1
	tiny.Base.OccasionalUsers = 0
	tiny.Base.BigSimUsers = 0
	if _, err := scale.New(tiny); err == nil {
		t.Error("fewer clients than shards accepted")
	}
}

// TestRemoteTrafficFlows sanity-checks the remote path end to end: ops
// issued are served and replied to, bytes move, latency is recorded.
func TestRemoteTrafficFlows(t *testing.T) {
	e := scale.MustNew(testConfig(3, 2))
	e.Run(scale.RunOptions{Horizon: time.Hour})
	rep := e.Report()

	var issued, served, replies int64
	for _, s := range rep.PerShard {
		issued += s.Remote.OpsIssued
		served += s.Remote.OpsServed
		replies += s.Remote.Replies
	}
	if issued == 0 {
		t.Fatal("no remote operations issued in an hour")
	}
	if served != issued {
		t.Errorf("issued %d but served %d", issued, served)
	}
	if replies != issued {
		t.Errorf("issued %d but completed %d (undelivered: %d)", issued, replies, rep.Exec.Undelivered)
	}
	if rep.Exec.Routed != issued+replies {
		t.Errorf("router carried %d messages, want %d", rep.Exec.Routed, issued+replies)
	}
	for _, s := range rep.PerShard {
		if s.Remote.Replies > 0 && s.Remote.Latency.Mean() <= 0 {
			t.Errorf("shard %d: replies recorded but latency mean %v", s.Shard, s.Remote.Latency.Mean())
		}
	}
}

// TestEngineRunsOnce pins single-use enforcement.
func TestEngineRunsOnce(t *testing.T) {
	e := scale.MustNew(testConfig(5, 2))
	e.Run(scale.RunOptions{Horizon: 10 * time.Minute})
	defer func() {
		if recover() == nil {
			t.Error("second Run did not panic")
		}
	}()
	e.Run(scale.RunOptions{Horizon: 10 * time.Minute})
}
