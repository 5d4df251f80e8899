package live

import (
	"sync/atomic"
	"testing"
	"time"

	"spritefs/internal/sim"
)

// TestClockCompliance runs the same scheduling scenario against both
// sim.Clock implementations — the virtual-time simulator and the
// wall-clock pacer — and checks the seam's observable contract: After
// fires once, At in the past is clamped (wall clock) and fires, Every
// recurs until stopped, and Now never goes backwards.
func TestClockCompliance(t *testing.T) {
	cases := []struct {
		name string
		// build returns the clock, a driver that runs it for roughly d of
		// clock time, and a stopper for an Every ticker (the wall clock
		// must marshal Stop onto its loop).
		build func(t *testing.T) (clk sim.Clock, drive func(d sim.Time), stopTicker func(*sim.Ticker), teardown func())
	}{
		{
			name: "sim",
			build: func(t *testing.T) (sim.Clock, func(sim.Time), func(*sim.Ticker), func()) {
				s := sim.New(1)
				return s, func(d sim.Time) { s.RunUntil(s.Now() + d) },
					func(tk *sim.Ticker) { tk.Stop() }, func() {}
			},
		},
		{
			name: "wallclock",
			build: func(t *testing.T) (sim.Clock, func(sim.Time), func(*sim.Ticker), func()) {
				w := New(sim.New(1))
				w.Start()
				return w, func(d sim.Time) { time.Sleep(time.Duration(d)) },
					func(tk *sim.Ticker) { w.Call(func() { tk.Stop() }) },
					w.Stop
			},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			clk, drive, stopTicker, teardown := tc.build(t)
			defer teardown()

			var afterFired, atFired atomic.Int64
			var ticks atomic.Int64
			clk.After(10*time.Millisecond, func() { afterFired.Add(1) })
			clk.After(-5, func() { afterFired.Add(1) }) // negative clamps to "now"
			clk.At(clk.Now(), func() { atFired.Add(1) })
			tk := clk.Every(20*time.Millisecond, 20*time.Millisecond, func() { ticks.Add(1) })
			if tk == nil {
				t.Fatal("Every returned nil ticker on a running clock")
			}

			before := clk.Now()
			drive(200 * time.Millisecond)
			after := clk.Now()
			if after < before {
				t.Fatalf("Now went backwards: %v -> %v", before, after)
			}

			if got := afterFired.Load(); got != 2 {
				t.Errorf("After callbacks fired %d times, want 2", got)
			}
			if got := atFired.Load(); got != 1 {
				t.Errorf("At callback fired %d times, want 1", got)
			}
			got := ticks.Load()
			if got < 2 {
				t.Errorf("Every fired %d times in 200ms at 20ms period, want >= 2", got)
			}
			stopTicker(tk)
			settled := ticks.Load()
			drive(100 * time.Millisecond)
			// A tick already in flight when Stop lands may still fire once.
			if d := ticks.Load() - settled; d > 1 {
				t.Errorf("Every fired %d times after Stop", d)
			}
		})
	}
}

// TestWallClockEveryTolerance checks that Every daemons keep real-time
// cadence: a 25ms ticker observed for 500ms must land near 20 fires.
// Bounds are generous (CI schedulers stall), but tight enough to catch a
// pacer that free-runs or stalls outright.
func TestWallClockEveryTolerance(t *testing.T) {
	w := New(sim.New(1))
	w.Start()
	defer w.Stop()

	var ticks atomic.Int64
	const period = 25 * time.Millisecond
	w.Every(period, period, func() { ticks.Add(1) })

	const window = 500 * time.Millisecond
	time.Sleep(window)
	got := ticks.Load()
	want := int64(window / period) // 20
	if got < want/2 || got > want*2 {
		t.Fatalf("ticker fired %d times in %v at %v period, want about %d", got, window, period, want)
	}
}

// TestWallClockNowTracksWall checks the shared origin: the loop's virtual
// now and the wall elapsed time stay within scheduling noise of each other.
func TestWallClockNowTracksWall(t *testing.T) {
	w := New(sim.New(1))
	w.Start()
	defer w.Stop()
	time.Sleep(50 * time.Millisecond)
	var virt sim.Time
	if err := w.Call(func() { virt = w.Sim().Now() }); err != nil {
		t.Fatal(err)
	}
	wall := w.Now()
	if virt > wall {
		t.Fatalf("virtual now %v ahead of wall now %v", virt, wall)
	}
	if wall-virt > 2*time.Second {
		t.Fatalf("virtual now %v lags wall now %v by too much", virt, wall)
	}
}

// TestWallClockStop checks the shutdown contract: Call after Stop returns
// ErrStopped, Go is rejected, Every returns a nil ticker that is safe to
// Stop, a Call accepted before Stop always executes (never hangs, never
// silently drops), and a second Stop — a second signal, a deferred Drain
// after an explicit one — returns like the first.
func TestWallClockStop(t *testing.T) {
	w := New(sim.New(1))
	w.Start()

	ran := false
	if err := w.Call(func() { ran = true }); err != nil || !ran {
		t.Fatalf("Call before Stop: err=%v ran=%v", err, ran)
	}
	w.Stop()
	if err := w.Call(func() {}); err != ErrStopped {
		t.Fatalf("Call after Stop: err=%v, want ErrStopped", err)
	}
	if w.Go(func() {}) {
		t.Fatal("Go accepted after Stop")
	}
	tk := w.Every(0, time.Millisecond, func() {})
	if tk != nil {
		t.Fatal("Every returned a ticker after Stop")
	}
	tk.Stop() // what a daemon's shutdown path does with it: a no-op, not a nil dereference
	w.Stop()
}
