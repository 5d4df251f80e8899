// Package sim provides the deterministic discrete-event simulation engine
// underlying the whole reproduction. All the cluster machinery (clients,
// servers, caches, daemons, the workload generators) runs on one virtual
// clock driven by an event scheduler, so a run with a fixed seed is exactly
// reproducible — the property that lets the experiment harness regenerate
// the paper's tables bit-for-bit across machines.
//
// The scheduler is one queue, allocation-free in steady state: one-shot
// events and the recurring timers created by Every are entries of one
// free-list event arena ordered by one indexed 4-ary min-heap (queue.go),
// keyed by (time, seq) with seq a single counter. A ticker is an entry that
// goes back in after its callback; because the heap records each entry's
// position, it can be stopped without leaving a tombstone.
// reference_test.go checks the firing order — and so every report byte —
// against a boxed container/heap queue that implements the documented
// rules and nothing else.
package sim

import (
	"fmt"
	"time"
)

// Time is virtual time measured from the start of the simulation.
type Time = time.Duration

// Sim is a discrete-event simulator. It is not safe for concurrent use;
// each simulated cluster owns one Sim and runs single-threaded (parallel
// experiments run independent Sims).
type Sim struct {
	now   Time
	seq   uint64
	fired uint64
	armed int   // tickers in the queue: not the firing one, not stopped ones
	q     queue // every pending event, one-shot or recurring
	rng   *Rand
}

// New returns a simulator whose random source is seeded with seed.
func New(seed int64) *Sim {
	return &Sim{q: queue{free: -1}, rng: NewRand(seed)}
}

// Now returns the current virtual time.
func (s *Sim) Now() Time { return s.now }

// Rand returns the simulator's deterministic random source.
func (s *Sim) Rand() *Rand { return s.rng }

// At schedules fn to run at absolute virtual time t. Scheduling in the past
// is a programming error and panics.
func (s *Sim) At(t Time, fn func()) {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, s.now))
	}
	s.seq++
	s.q.push(s.q.alloc(fn, 0, nil), t, s.seq)
}

// After schedules fn to run d after the current time. Negative d is
// clamped to zero.
func (s *Sim) After(d Time, fn func()) {
	if d < 0 {
		d = 0
	}
	s.At(s.now+d, fn)
}

// Ticker is a cancellable periodic event created by Every.
type Ticker struct {
	s       *Sim
	slot    int32 // queued arena entry, -1 while firing or after Stop
	stopped bool
}

// Stop cancels future firings of the ticker. The queued entry is removed
// from the heap and recycled immediately — no tombstone stays behind, so
// stopped tickers leave Pending unchanged.
func (t *Ticker) Stop() {
	if t.stopped {
		return
	}
	t.stopped = true
	if t.slot >= 0 {
		t.s.q.remove(t.slot)
		t.s.q.release(t.slot)
		t.s.armed--
		t.slot = -1
	}
}

// Every schedules fn to run at start and then every period thereafter,
// until the returned Ticker is stopped or the simulation ends. It models
// the paper's daemons (the 5-second cache cleaner, the counter sampler).
// period must be positive.
func (s *Sim) Every(start, period Time, fn func()) *Ticker {
	if period <= 0 {
		panic("sim: non-positive ticker period")
	}
	if start < s.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", start, s.now))
	}
	s.seq++
	tk := &Ticker{s: s}
	tk.slot = s.q.alloc(fn, period, tk)
	s.q.push(tk.slot, start, s.seq)
	s.armed++
	return tk
}

// Step runs the single earliest pending event, advancing the clock to its
// time. It reports whether an event was run.
func (s *Sim) Step() bool {
	if len(s.q.heap) == 0 {
		return false
	}
	top := s.q.heap[0]
	s.q.remove(top.slot)
	e := &s.q.pool[top.slot]
	fn, tk, period := e.fn, e.tk, e.period
	s.now = top.at
	if tk == nil {
		// One-shot event: release the arena slot before running fn, which
		// may schedule new events, growing or reusing the arena.
		s.q.release(top.slot)
		fn()
	} else {
		// Ticker: run the callback with the ticker out of the queue (so
		// Stop from inside fn is a plain flag set), then re-arm one period
		// later — consuming the next seq *after* fn has run, exactly as a
		// self-rescheduling closure would.
		tk.slot = -1
		s.armed--
		fn()
		if tk.stopped {
			s.q.release(top.slot)
		} else {
			s.seq++
			s.q.push(top.slot, top.at+period, s.seq)
			tk.slot = top.slot
			s.armed++
		}
	}
	s.fired++
	return true
}

// Run executes events until none remain.
func (s *Sim) Run() {
	for s.Step() {
	}
}

// RunUntil executes all events scheduled at or before t, then advances the
// clock to exactly t. Events scheduled after t remain pending.
func (s *Sim) RunUntil(t Time) {
	for {
		at, ok := s.NextAt()
		if !ok || at > t {
			break
		}
		s.Step()
	}
	if s.now < t {
		s.now = t
	}
}

// Pending returns the number of events still scheduled, counting each armed
// ticker as one event.
func (s *Sim) Pending() int { return len(s.q.heap) }

// NextAt returns the time of the earliest pending event. ok is false when
// no events are scheduled. The conservative parallel executor uses this to
// pick each epoch's start without disturbing the scheduler.
func (s *Sim) NextAt() (t Time, ok bool) {
	if len(s.q.heap) == 0 {
		return 0, false
	}
	return s.q.heap[0].at, true
}

// Fired returns the number of events run so far, a ticker firing counting
// as one: the denominator of wall-clock per simulated event. It is a plain
// counter, deliberately not a registered metric.
func (s *Sim) Fired() uint64 { return s.fired }

// EventPoolFree returns the number of recycled event-arena slots waiting
// for reuse, fired one-shot events' and stopped tickers' alike (the
// spritefs_sim_event_pool_free gauge).
func (s *Sim) EventPoolFree() int { return s.q.freeLen() }

// WheelTimers returns the number of armed recurring timers. It is named
// after the gauge it feeds, spritefs_sim_wheel_timers, whose family name
// predates the timer heap and stays because every golden carries it.
func (s *Sim) WheelTimers() int { return s.armed }
