package scale

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// within fails the test if f does not return within a generous deadline,
// so a stop that waits on a helper nothing wakes fails instead of hanging.
func within(t *testing.T, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		f()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatalf("%s did not return", what)
	}
}

// TestRoundPool drives the pool without shards for thousands of rounds:
// every job runs exactly once, while its own round is the current one,
// and its effects are visible to the caller when run returns (the race
// detector checks the plain writes in mark). Round sizes cover the empty
// and single-job rounds, one job per worker and a count wider than 16
// bits. In a round of one job per worker each job waits for all of them
// to start, so every helper must claim one; every other job runs for about
// a microsecond, long enough for helpers to claim some. With no helpers
// the pool starts no goroutine and runs the round in index order; with
// helpers, a pool left idle parks every helper, and stop ends them all.
func TestRoundPool(t *testing.T) {
	const rounds, big = 3000, 1<<16 + 3
	outside := runtime.NumGoroutine()
	for _, helpers := range []int{0, 1, 3} {
		t.Run(fmt.Sprintf("helpers=%d", helpers), func(t *testing.T) {
			before := runtime.NumGoroutine()
			p := newRoundPool(helpers)
			if helpers == 0 && runtime.NumGoroutine() > before {
				t.Fatalf("a pool with no helpers started %d goroutines", runtime.NumGoroutine()-before)
			}
			hits := make([]atomic.Int32, big)
			mark := make([]int, big)
			var cur atomic.Int64
			cur.Store(-1)
			sizes := []int{0, 1, 2, helpers + 1, 5}
			for r := 0; r < rounds; r++ {
				n := sizes[r%len(sizes)]
				if r == rounds/2 {
					n = big
				}
				next := 0
				var started atomic.Int32
				cur.Store(int64(r))
				p.run(n, func(i int) {
					started.Add(1)
					for s := time.Now(); ; {
						if n == helpers+1 && started.Load() < int32(n) {
							if time.Since(s) > 5*time.Second {
								t.Errorf("round %d: %d of %d workers claimed a job", r, started.Load(), n)
								break
							}
							runtime.Gosched() // more workers than cores
						} else if time.Since(s) > time.Microsecond {
							break
						}
					}
					if got := cur.Load(); got != int64(r) {
						t.Errorf("round %d: job %d ran during round %d", r, i, got)
					}
					if helpers == 0 {
						if i != next {
							t.Errorf("round %d: job %d ran when job %d was next", r, i, next)
						}
						next++
					}
					hits[i].Add(1)
					mark[i] = r
				})
				cur.Store(-1)
				for i := 0; i < n; i++ {
					if h := hits[i].Swap(0); h != 1 || mark[i] != r {
						t.Fatalf("round %d of %d jobs: job %d ran %d times by the return (last in round %d)", r, n, i, h, mark[i])
					}
				}
			}
			if helpers > 0 {
				// A helper woken by the last round still counts as parked
				// until it takes the lock back; give it time to, and to
				// poll out, before counting.
				time.Sleep(10 * time.Millisecond)
				deadline := time.Now().Add(5 * time.Second)
				for int(p.parked.Load()) != helpers {
					if time.Now().After(deadline) {
						t.Fatalf("%d of %d idle helpers parked", p.parked.Load(), helpers)
					}
					time.Sleep(time.Millisecond)
				}
			}
			within(t, "stop", p.stop)
			// within's goroutine signals before it exits, so it may still
			// be counted; wait for the count to settle. A helper that
			// never exits keeps it high past the deadline.
			want := outside + 1 // this subtest's own goroutine
			deadline := time.Now().Add(5 * time.Second)
			for n := runtime.NumGoroutine(); n > want; n = runtime.NumGoroutine() {
				if time.Now().After(deadline) {
					t.Fatalf("%d goroutines left after stop, want at most %d", n, want)
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
}
