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

// WallClock implements the sim.Clock seam on real time. It wraps a
// *sim.Sim and paces it against the monotonic clock from a single
// dispatcher goroutine: pending events fire when their virtual time
// arrives on the wall, and scheduling calls from other goroutines are
// marshalled onto that loop. Virtual time and wall time share an origin
// (the moment New was called), so sim.Time doubles as "duration since the
// service started".
//
// Concurrency contract: WallClock's exported methods are safe from any
// goroutine EXCEPT code already executing on the dispatcher loop — such
// code owns the inner *sim.Sim and must use it directly (Call and Every
// block on the loop and would deadlock). Tickers returned by Every are
// armed in the inner scheduler; stop them from the loop (wrap the Stop in
// Call) rather than directly.
type WallClock struct {
	inner *sim.Sim
	start time.Time

	mu   sync.Mutex
	subs []submission
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

// submission is one externally requested scheduling action, applied by the
// dispatcher loop in arrival order.
type submission struct {
	abs    bool
	at     sim.Time // absolute target when abs
	delay  sim.Time // relative to loop-now otherwise
	period sim.Time // > 0: recurring (Every)
	fn     func()
	ran    chan struct{}    // Call: closed once fn has executed
	tk     chan *sim.Ticker // Every: receives the armed ticker
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

// Stop shuts the loop down and waits for it to exit. Pending Call and
// Every submissions are released with ErrStopped / a nil ticker; pending
// simulator events are dropped unfired. Every call returns once the loop
// has exited, the second and later ones having nothing else to do.
func (w *WallClock) Stop() {
	w.stopOnce.Do(func() { close(w.quit) })
	<-w.done
}

// Now returns the wall time elapsed since the clock was created, as the
// sim.Time every component on the loop also sees (the loop advances the
// inner simulator to this value before firing events).
func (w *WallClock) Now() sim.Time { return sim.Time(time.Since(w.start)) }

// At schedules fn on the dispatcher loop at absolute time t; times already
// past are clamped to "as soon as the loop gets to it".
func (w *WallClock) At(t sim.Time, fn func()) {
	w.submit(submission{abs: true, at: t, fn: fn})
}

// After schedules fn on the dispatcher loop d from now; negative d is
// clamped to zero.
func (w *WallClock) After(d sim.Time, fn func()) {
	if d < 0 {
		d = 0
	}
	w.submit(submission{delay: d, fn: fn})
}

// Every schedules fn at start and then every period thereafter, on wall
// time. It blocks until the loop has armed the timer and returns the
// ticker (nil if the clock is already stopped). period must be positive.
func (w *WallClock) Every(start, period sim.Time, fn func()) *sim.Ticker {
	if period <= 0 {
		panic("live: non-positive ticker period")
	}
	ch := make(chan *sim.Ticker, 1)
	if !w.submit(submission{abs: true, at: start, period: period, fn: fn, tk: ch}) {
		return nil
	}
	return <-ch
}

// WallClock implements the scheduling seam.
var _ sim.Clock = (*WallClock)(nil)

// Call runs fn on the dispatcher loop and waits for it to finish — the
// primitive behind RPC dispatch and live /metrics snapshots. fn may use
// the inner simulator freely (it is running on the loop).
func (w *WallClock) Call(fn func()) error {
	executed := false
	ch := make(chan struct{})
	if !w.submit(submission{fn: func() { fn(); executed = true }, ran: ch}) {
		return ErrStopped
	}
	<-ch
	if !executed {
		return ErrStopped
	}
	return nil
}

// Go runs fn on the dispatcher loop without waiting. It reports whether
// the closure was accepted (false once the clock has stopped).
func (w *WallClock) Go(fn func()) bool {
	return w.submit(submission{fn: fn})
}

// Sim returns the inner simulator. Only code already executing on the
// dispatcher loop (inside a Call/Go closure or a scheduled event) may use
// it; from there it is the natural way to schedule follow-up events
// without re-marshalling.
func (w *WallClock) Sim() *sim.Sim { return w.inner }

// submit queues sb for the loop, and wakes the loop if it is asleep. Returns
// false if the loop has already shut down (sb's channels, if any, are
// released by shutdown or never entered the queue).
func (w *WallClock) submit(sb submission) bool {
	w.mu.Lock()
	if w.stopped {
		w.mu.Unlock()
		return false
	}
	w.subs = append(w.subs, sb)
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

// idleWait bounds how long the loop sleeps when the simulator has no
// pending events at all (daemons normally guarantee one); it only matters
// for a bare WallClock with nothing scheduled yet.
const idleWait = 250 * time.Millisecond

// loop is the dispatcher: apply submissions, fire due events, sleep until
// the next event's wall time or the next submission.
func (w *WallClock) loop() {
	defer w.shutdown()
	// Submissions land in one buffer while the loop applies the other.
	var spare []submission
	var sleep *time.Timer // made at the first sleep, re-armed at each later one
	for {
		w.mu.Lock()
		subs := w.subs
		w.subs = spare[:0]
		w.asleep = false // woken by the timer: no one owes a send any more
		w.mu.Unlock()
		now := w.Now()
		for i := range subs {
			w.apply(&subs[i], now)
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

// apply installs one submission into the inner scheduler. Target times in
// the simulator's past are clamped to its now (external callers computed
// them against a wall clock that has since moved).
func (w *WallClock) apply(sb *submission, now sim.Time) {
	at := sb.at
	if !sb.abs {
		at = now + sb.delay
	}
	if at < w.inner.Now() {
		at = w.inner.Now()
	}
	switch {
	case sb.period > 0:
		sb.tk <- w.inner.Every(at, sb.period, sb.fn)
	case sb.ran != nil:
		fn, ch := sb.fn, sb.ran
		w.inner.At(at, func() { fn(); close(ch) })
	default:
		w.inner.At(at, sb.fn)
	}
}

// shutdown marks the clock stopped and releases every submission that was
// still queued: Call waiters observe executed == false (ErrStopped), Every
// waiters receive a nil ticker.
func (w *WallClock) shutdown() {
	w.mu.Lock()
	w.stopped = true
	subs := w.subs
	w.subs = nil
	w.mu.Unlock()
	for _, sb := range subs {
		if sb.ran != nil {
			close(sb.ran)
		}
		if sb.tk != nil {
			sb.tk <- nil
		}
	}
	close(w.done)
}
