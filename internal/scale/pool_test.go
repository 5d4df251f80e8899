package scale_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"spritefs/internal/scale"
	"spritefs/internal/workload"
)

// poolConfig is a chatty little topology whose runs route thousands of
// messages, so pooling behaviour is visible in the counters.
func poolConfig() scale.Config {
	p := workload.Default(7)
	p.NumClients = 16
	p.DailyUsers = 12
	p.OccasionalUsers = 4
	cfg := scale.Config{Base: p, Shards: 4, ServersPerShard: 1}
	cfg.Remote = scale.DefaultRemote()
	cfg.Remote.OpsPerClientHour = 600
	return cfg
}

// TestMessagePoolSteadyState pins the recycling contract behind the
// benchmarks' allocs/op numbers: a run seeded with the drained free
// lists of an identical previous run allocates no new messages at all,
// because every message the protocol needs already sits in some shard's
// pool. Messages recycle into the consuming shard's pool rather than the
// allocator's, so this also proves the warm pool distribution is
// self-sustaining, not just large enough in aggregate.
func TestMessagePoolSteadyState(t *testing.T) {
	cfg := poolConfig()
	opts := scale.RunOptions{Horizon: 10 * time.Minute, Parallel: true}

	cold := scale.MustNew(cfg)
	coldStats := cold.Run(opts)
	if coldStats.Exec.MsgAllocs == 0 {
		t.Fatal("cold run allocated no messages; the test exercises nothing")
	}
	if coldStats.Exec.Routed == 0 {
		t.Fatal("cold run routed no messages; the test exercises nothing")
	}

	warmCfg := cfg
	warmCfg.SeedMessages = cold.DrainMessagePools()
	warm := scale.MustNew(warmCfg)
	warmStats := warm.Run(opts)
	if warmStats.Exec.MsgAllocs != 0 {
		t.Errorf("warm run allocated %d messages (cold run: %d); free lists are not reaching steady state",
			warmStats.Exec.MsgAllocs, coldStats.Exec.MsgAllocs)
	}
	if warmStats.Exec.Routed != coldStats.Exec.Routed {
		t.Errorf("seeding the pools changed behaviour: cold routed %d, warm routed %d",
			coldStats.Exec.Routed, warmStats.Exec.Routed)
	}
}

// TestDrainMessagePoolsEmpties pins that a drain actually transfers
// ownership: draining twice yields nothing the second time.
func TestDrainMessagePoolsEmpties(t *testing.T) {
	cfg := poolConfig()
	e := scale.MustNew(cfg)
	e.Run(scale.RunOptions{Horizon: 5 * time.Minute, Parallel: true})
	first := e.DrainMessagePools()
	var n int
	for _, p := range first {
		n += len(p)
	}
	if n == 0 {
		t.Fatal("run left no messages in the pools; the test exercises nothing")
	}
	for i, p := range e.DrainMessagePools() {
		if len(p) != 0 {
			t.Errorf("second drain returned %d messages for shard %d; first drain should have emptied it", len(p), i)
		}
	}
}

// TestRoundPoolEndsWithRun: no goroutine a run starts outlives it. Parallel
// runs at two and eight workers return within a deadline and leave the
// goroutine count where it was.
func TestRoundPoolEndsWithRun(t *testing.T) {
	before := runtime.NumGoroutine()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for _, workers := range []int{2, 8} {
			scale.MustNew(poolConfig()).Run(scale.RunOptions{Horizon: 5 * time.Minute, Parallel: true, Workers: workers})
		}
	}()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("parallel runs did not return")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines outlived the runs", runtime.NumGoroutine()-before)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestRunTimesJobs pins the relations between the run's host measurements:
// a round's longest job is part of the jobs' total and runs inside the
// round, one goroutine's jobs and the time between its rounds run inside
// its wall-clock, and a one-shard round's longest job is its only job.
func TestRunTimesJobs(t *testing.T) {
	for _, tc := range []struct {
		shards  int
		opts    scale.RunOptions
		oneTime bool // every job runs on one goroutine
	}{
		{1, scale.RunOptions{}, true},
		{4, scale.RunOptions{}, true},
		{4, scale.RunOptions{Parallel: true, Workers: 1}, true},
		{4, scale.RunOptions{Parallel: true, Workers: 4}, false},
	} {
		cfg := poolConfig()
		cfg.Shards = tc.shards
		tc.opts.Horizon = 5 * time.Minute
		st := scale.MustNew(cfg).Run(tc.opts)
		name := fmt.Sprintf("shards=%d workers=%d", tc.shards, st.Workers)
		if st.Critical <= 0 || st.Critical > st.Busy || st.Critical > st.Wall {
			t.Errorf("%s: critical %v, want in (0, min(busy %v, wall %v)]", name, st.Critical, st.Busy, st.Wall)
		}
		if st.Serial <= 0 || st.Critical+st.Serial > st.Wall {
			t.Errorf("%s: serial %v, want in (0, wall %v - critical %v]", name, st.Serial, st.Wall, st.Critical)
		}
		if tc.oneTime && st.Busy+st.Serial > st.Wall {
			t.Errorf("%s: busy %v and serial %v above wall %v on one goroutine", name, st.Busy, st.Serial, st.Wall)
		}
		if tc.shards == 1 && st.Busy != st.Critical {
			t.Errorf("%s: busy %v, critical %v; one job a round makes them equal", name, st.Busy, st.Critical)
		}
	}
}
