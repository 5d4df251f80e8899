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
// messages.
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
