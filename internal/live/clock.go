package live

import (
	"errors"
	"sync"
	"time"

	"spritefs/internal/sim"
)

// ErrStopped is returned by WallClock.Call (and by RPC dispatch built on
// it) once the clock's loop has shut down.
var ErrStopped = errors.New("live: wall clock stopped")

// WallClock paces a *sim.Sim against real time. It owns the simulator
// from a single dispatcher goroutine: pending events fire when their
// virtual time arrives on the monotonic clock, and closures handed over by
// other goroutines (Go, Call) run on that loop. Virtual time and wall time
// share an origin (the moment Start was called), so sim.Time doubles as
// "duration since the service started".
//
// Concurrency contract: WallClock's exported methods are safe from any
// goroutine EXCEPT code already executing on the dispatcher loop — such
// code owns the inner *sim.Sim and must use it directly (Call blocks on
// the loop and would deadlock). Daemons are armed on the inner simulator
// before Start, or from the loop through Sim.
type WallClock struct {
	inner *sim.Sim
	start time.Time

	mu   sync.Mutex
	subs []func()
	// asleep is the loop's word that it is blocked, or about to block, with
	// subs empty: the submission that clears it owes the loop one send on
	// wake. While the loop is running, a submission is queued and no more.
	asleep  bool
	stopped bool

	wake     chan struct{}
	quit     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
}

// New wraps inner in a wall-clock pacer. The wall origin is anchored now;
// call Start to launch the dispatcher loop. The caller must hand over
// ownership: after Start, only the loop may touch inner.
func New(inner *sim.Sim) *WallClock {
	return &WallClock{
		inner: inner,
		start: time.Now(),
		wake:  make(chan struct{}, 1),
		quit:  make(chan struct{}),
		done:  make(chan struct{}),
	}
}

// Start launches the dispatcher loop. The wall origin is re-anchored to
// this moment, so time spent constructing the cluster (file-population
// bootstrap) does not count as elapsed service time; anything the caller
// scheduled directly on the inner simulator before Start (daemon setup at
// virtual time zero) fires from here on.
func (w *WallClock) Start() {
	w.start = time.Now()
	go w.loop()
}

// Stop shuts the loop down and waits for it to exit. Closures still queued
// are dropped, and their Calls return ErrStopped; pending simulator events
// are dropped unfired. Every call returns once the loop has exited, the
// second and later ones having nothing else to do.
func (w *WallClock) Stop() {
	w.stopOnce.Do(func() { close(w.quit) })
	<-w.done
}

// Now returns the wall time elapsed since the clock was started, as the
// sim.Time every component on the loop also sees (the loop advances the
// inner simulator to this value before firing events).
func (w *WallClock) Now() sim.Time { return sim.Time(time.Since(w.start)) }

// Call runs fn on the dispatcher loop and waits for it to finish — the
// primitive behind live /metrics snapshots and Drain. fn may use the inner
// simulator freely (it is running on the loop).
func (w *WallClock) Call(fn func()) error {
	ran := make(chan struct{})
	if !w.Go(func() { fn(); close(ran) }) {
		return ErrStopped
	}
	select {
	case <-ran:
		return nil
	case <-w.done:
		// The loop closes ran, if it runs fn at all, before it exits.
		select {
		case <-ran:
			return nil
		default:
			return ErrStopped
		}
	}
}

// Go runs fn on the dispatcher loop without waiting, and wakes the loop if
// it is asleep. It reports whether the closure was accepted (false once
// the clock has stopped).
func (w *WallClock) Go(fn func()) bool {
	w.mu.Lock()
	if w.stopped {
		w.mu.Unlock()
		return false
	}
	w.subs = append(w.subs, fn)
	wake := w.asleep
	w.asleep = false
	w.mu.Unlock()
	if wake {
		select {
		case w.wake <- struct{}{}:
		default: // a send the loop has yet to receive wakes it just as well
		}
	}
	return true
}

// Sim returns the inner simulator. Only code already executing on the
// dispatcher loop (inside a Call/Go closure or a scheduled event) may use
// it; from there it is the natural way to schedule follow-up events
// without re-marshalling.
func (w *WallClock) Sim() *sim.Sim { return w.inner }

// idleWait bounds how long the loop sleeps when the simulator has no
// pending events at all (daemons normally guarantee one); it only matters
// for a bare WallClock with nothing scheduled yet.
const idleWait = 250 * time.Millisecond

// loop is the dispatcher: insert the queued closures, fire due events,
// sleep until the next event's wall time or the next submission.
func (w *WallClock) loop() {
	defer w.shutdown()
	// Closures land in one buffer while the loop inserts the other.
	var spare []func()
	var sleep *time.Timer // made at the first sleep, re-armed at each later one
	for {
		w.mu.Lock()
		subs := w.subs
		w.subs = spare[:0]
		w.asleep = false // woken by the timer: no one owes a send any more
		w.mu.Unlock()
		// Each closure runs at the pass's instant, after the events already
		// due, in arrival order. The simulator's clock never goes back, so
		// one handed over ahead of the wall keeps its instant.
		now := w.Now()
		at := max(now, w.inner.Now())
		for _, fn := range subs {
			w.inner.At(at, fn)
		}
		clear(subs) // the buffer outlives the pass; its closures need not
		spare = subs
		w.inner.RunUntil(now)

		select {
		case <-w.quit:
			return
		default:
		}

		// Sleep until the earliest pending event is due on the wall, or a
		// submission arrives.
		wait := idleWait
		if at, ok := w.inner.NextAt(); ok {
			wait = time.Duration(at - w.Now())
			if wait <= 0 {
				continue // already due; run another pass immediately
			}
		}
		// Declaring the loop asleep and finding the queue empty are one step
		// under mu: a submission either is seen here or sees asleep.
		w.mu.Lock()
		if len(w.subs) > 0 {
			w.mu.Unlock()
			continue
		}
		w.asleep = true
		w.mu.Unlock()
		// Between sleeps the timer is stopped and its channel empty, which
		// is what Reset asks for.
		if sleep == nil {
			sleep = time.NewTimer(wait)
		} else {
			sleep.Reset(wait)
		}
		select {
		case <-w.wake:
			if !sleep.Stop() {
				<-sleep.C // it fired while the wake-up was being taken
			}
		case <-sleep.C:
		case <-w.quit:
			sleep.Stop()
			return
		}
	}
}

// shutdown marks the clock stopped, drops the closures still queued and
// releases every Call waiting on the loop.
func (w *WallClock) shutdown() {
	w.mu.Lock()
	w.stopped = true
	w.subs = nil
	w.mu.Unlock()
	close(w.done)
}
