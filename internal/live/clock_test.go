package live

import (
	"sync/atomic"
	"testing"
	"time"

	"spritefs/internal/sim"
)

// TestWallClockEveryTolerance checks that a ticker armed on the inner
// simulator — the way the cluster's daemons run under the pacer — keeps
// real-time cadence: a 25ms ticker observed for 500ms must land near 20
// fires, most of them within half a period of their due time. Bounds are
// generous (CI schedulers stall), but tight enough to catch a pacer that
// free-runs, stalls outright, or sleeps past the ticker's next firing.
func TestWallClockEveryTolerance(t *testing.T) {
	w := New(sim.New(1))
	w.Start()
	defer w.Stop()

	var ticks, punctual atomic.Int64
	const period = 25 * time.Millisecond
	err := w.Call(func() {
		s := w.Sim()
		s.Every(s.Now()+period, period, func() {
			ticks.Add(1)
			if w.Now()-s.Now() < period/2 { // wall time past the firing's due time
				punctual.Add(1)
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}

	const window = 500 * time.Millisecond
	time.Sleep(window)
	got, onTime := ticks.Load(), punctual.Load()
	want := int64(window / period) // 20
	if got < want/2 || got > want*2 {
		t.Fatalf("ticker fired %d times in %v at %v period, want about %d", got, window, period, want)
	}
	if onTime < got/2 {
		t.Fatalf("only %d of %d firings came within %v of their due time", onTime, got, period/2)
	}
}

// TestWallClockCallQueuedAtStop stops the clock while a Call waits in its
// queue behind a closure that holds the loop: the Call returns ErrStopped
// without running its closure, and does not hang.
func TestWallClockCallQueuedAtStop(t *testing.T) {
	w := New(sim.New(1))
	w.Start()
	defer w.Stop()

	entered, release := make(chan struct{}), make(chan struct{})
	w.Go(func() { close(entered); <-release })
	<-entered

	var ran atomic.Bool
	result := make(chan error, 1)
	go func() { result <- w.Call(func() { ran.Store(true) }) }()
	for queued := false; !queued; {
		time.Sleep(100 * time.Microsecond)
		w.mu.Lock()
		queued = len(w.subs) > 0
		w.mu.Unlock()
	}
	w.stopOnce.Do(func() { close(w.quit) })
	close(release)

	select {
	case err := <-result:
		if err != ErrStopped {
			t.Errorf("Call queued at Stop: err=%v, want ErrStopped", err)
		}
		if ran.Load() {
			t.Error("Call queued at Stop ran its closure")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Call queued at Stop still waiting 10s after the loop was let go")
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

// TestWallClockStop checks the shutdown contract: a Call that returned
// before Stop has run, Call after Stop returns ErrStopped, Go is rejected,
// and a second Stop — a second signal, a deferred Drain after an explicit
// one — returns like the first.
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
	w.Stop()
}
