// Package sim provides the deterministic discrete-event simulation engine
// underlying the whole reproduction. All the cluster machinery (clients,
// servers, caches, daemons, the workload generators) runs on one virtual
// clock driven by an event scheduler, so a run with a fixed seed is exactly
// reproducible — the property that lets the experiment harness regenerate
// the paper's tables bit-for-bit across machines.
//
// The scheduler is allocation-free in steady state: one-shot events live in
// a free-list arena ordered by an inlined 4-ary index min-heap (heap.go),
// and the recurring timers created by Every live in a second arena whose
// heap also records each entry's position, so a ticker can be stopped
// without leaving a tombstone (timers.go). Both structures key events by
// (time, seq), where seq is a single counter shared across them, so the
// merged firing order — and therefore every report byte — is that of one
// queue holding everything; reference_test.go checks it against exactly
// such a queue.
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
	now    Time
	seq    uint64
	fired  uint64
	pq     eventQueue // one-shot events (At/After)
	timers timerHeap  // recurring timers (Every)
	rng    *Rand
}

// New returns a simulator whose random source is seeded with seed.
func New(seed int64) *Sim {
	return &Sim{pq: newEventQueue(), timers: newTimerHeap(), rng: NewRand(seed)}
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
	s.pq.push(s.pq.alloc(t, s.seq, fn))
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
	idx     int32 // armed arena entry, -1 while firing or after Stop
	stopped bool
}

// Stop cancels future firings of the ticker. The armed entry is removed
// from the timer heap and recycled immediately — no tombstone stays behind
// in any queue, so stopped tickers leave Pending unchanged.
func (t *Ticker) Stop() {
	if t.stopped {
		return
	}
	t.stopped = true
	if t.idx >= 0 {
		t.s.timers.remove(t.idx)
		t.s.timers.release(t.idx)
		t.idx = -1
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
	tk.idx = s.timers.alloc(period, fn, tk)
	s.timers.push(tk.idx, start, s.seq)
	return tk
}

// Step runs the single earliest pending event, advancing the clock to its
// time. It reports whether an event was run.
func (s *Sim) Step() bool {
	at1, seq1, ok1 := s.pq.min()
	at2, seq2, tidx, ok2 := s.timers.min()
	switch {
	case !ok1 && !ok2:
		return false
	case ok1 && (!ok2 || at1 < at2 || (at1 == at2 && seq1 < seq2)):
		// One-shot event fires. Copy the fields out and release the
		// arena slot before running fn: the callback may schedule new
		// events, growing or reusing the arena.
		i := s.pq.popMin()
		e := &s.pq.pool[i]
		at, fn := e.at, e.fn
		s.pq.release(i)
		s.now = at
		fn()
	default:
		// Recurring timer fires. Take it out of the heap, run the
		// callback with the ticker disarmed (so Stop from inside fn is a
		// plain flag set), then re-arm one period later — consuming the
		// next seq *after* fn has run, exactly as a self-rescheduling
		// closure would.
		s.timers.remove(tidx)
		e := &s.timers.pool[tidx]
		fn, tk, period := e.fn, e.tk, e.period
		tk.idx = -1
		s.now = at2
		fn()
		if tk.stopped {
			s.timers.release(tidx)
		} else {
			s.seq++
			s.timers.push(tidx, at2+period, s.seq)
			tk.idx = tidx
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
func (s *Sim) Pending() int { return s.pq.len() + s.timers.len() }

// NextAt returns the time of the earliest pending event. ok is false when
// no events are scheduled. The conservative parallel executor uses this to
// pick each epoch's start without disturbing the scheduler.
func (s *Sim) NextAt() (t Time, ok bool) {
	at1, seq1, ok1 := s.pq.min()
	at2, seq2, _, ok2 := s.timers.min()
	switch {
	case !ok1 && !ok2:
		return 0, false
	case ok1 && (!ok2 || at1 < at2 || (at1 == at2 && seq1 < seq2)):
		return at1, true
	default:
		return at2, true
	}
}

// Fired returns the number of events run so far, a ticker firing counting
// as one: the denominator of wall-clock per simulated event. It is a plain
// counter, deliberately not a registered metric.
func (s *Sim) Fired() uint64 { return s.fired }

// EventPoolFree returns the number of recycled one-shot event slots waiting
// for reuse (the spritefs_sim_event_pool_free gauge).
func (s *Sim) EventPoolFree() int { return s.pq.freeLen() }

// WheelTimers returns the number of armed recurring timers. It is named
// after the gauge it feeds, spritefs_sim_wheel_timers, whose family name
// predates the timer heap and stays because every golden carries it.
func (s *Sim) WheelTimers() int { return s.timers.len() }
