package sim

import (
	"container/heap"
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// A differential oracle for the scheduler. refSched below is a scheduler
// that is obviously right — container/heap over boxed events, a ticker
// being nothing but an event that puts itself back — and implements the
// documented rules and nothing else:
//
//   - events fire in (at, seq) order, seq being one counter shared by
//     one-shot events and tickers, so same-instant events fire in the
//     order they were scheduled;
//   - a ticker's re-arm takes its seq after the callback has returned, so
//     whatever the callback schedules for the re-arm instant fires first;
//   - a firing ticker is out of the queue while its callback runs: it is
//     not pending, and Stop from inside the callback just prevents the
//     re-arm;
//   - Stop leaves nothing behind in the queue.
//
// The driver decodes one op stream from bytes and applies it to Sim and to
// refSched, logging every firing and, after every op, everything the
// scheduler lets a caller observe. The two logs must be identical.

// stopper is what both schedulers' Every returns.
type stopper interface{ Stop() }

// sched is the scheduler surface the driver exercises.
type sched interface {
	Now() Time
	At(t Time, fn func())
	After(d Time, fn func())
	Every(start, period Time, fn func()) stopper
	Step() bool
	RunUntil(t Time)
	Pending() int
	NextAt() (Time, bool)
	Timers() int
}

// simSched adapts *Sim to sched.
type simSched struct{ *Sim }

func (s simSched) Every(start, period Time, fn func()) stopper {
	return s.Sim.Every(start, period, fn)
}
func (s simSched) Timers() int { return s.WheelTimers() }

// refEvent is one boxed queue entry: a one-shot (fn) or a ticker's next
// firing (tk).
type refEvent struct {
	at    Time
	seq   uint64
	fn    func()
	tk    *refTicker
	index int // position in the heap, kept by Swap/Push
}

type refHeap []*refEvent

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h refHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index, h[j].index = i, j
}
func (h *refHeap) Push(x any) {
	e := x.(*refEvent)
	e.index = len(*h)
	*h = append(*h, e)
}
func (h *refHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	*h = old[:len(old)-1]
	return e
}

// refSched is the reference scheduler.
type refSched struct {
	now    Time
	seq    uint64
	h      refHeap
	timers int // entries of h that are a ticker's next firing
}

type refTicker struct {
	s       *refSched
	period  Time
	fn      func()
	ev      *refEvent // queued next firing; nil while firing or after Stop
	stopped bool
}

func (r *refSched) Now() Time { return r.now }

func (r *refSched) At(t Time, fn func()) {
	if t < r.now {
		panic("refSched: scheduling in the past")
	}
	r.seq++
	heap.Push(&r.h, &refEvent{at: t, seq: r.seq, fn: fn})
}

func (r *refSched) After(d Time, fn func()) {
	if d < 0 {
		d = 0
	}
	r.At(r.now+d, fn)
}

func (r *refSched) Every(start, period Time, fn func()) stopper {
	if period <= 0 || start < r.now {
		panic("refSched: bad ticker")
	}
	r.seq++
	tk := &refTicker{s: r, period: period, fn: fn}
	tk.ev = &refEvent{at: start, seq: r.seq, tk: tk}
	heap.Push(&r.h, tk.ev)
	r.timers++
	return tk
}

func (tk *refTicker) Stop() {
	tk.stopped = true
	if tk.ev != nil {
		heap.Remove(&tk.s.h, tk.ev.index)
		tk.s.timers--
		tk.ev = nil
	}
}

func (r *refSched) Step() bool {
	if len(r.h) == 0 {
		return false
	}
	e := heap.Pop(&r.h).(*refEvent)
	r.now = e.at
	if e.tk == nil {
		e.fn()
		return true
	}
	tk := e.tk
	tk.ev = nil
	r.timers--
	tk.fn()
	if !tk.stopped {
		r.seq++
		tk.ev = &refEvent{at: e.at + tk.period, seq: r.seq, tk: tk}
		heap.Push(&r.h, tk.ev)
		r.timers++
	}
	return true
}

func (r *refSched) RunUntil(t Time) {
	for len(r.h) > 0 && r.h[0].at <= t {
		r.Step()
	}
	if r.now < t {
		r.now = t
	}
}

func (r *refSched) Pending() int { return len(r.h) }

func (r *refSched) NextAt() (Time, bool) {
	if len(r.h) == 0 {
		return 0, false
	}
	return r.h[0].at, true
}

func (r *refSched) Timers() int { return r.timers }

// obs is one log entry: a firing ('f', id = callback id) or the state after
// a top-level op ('o', id = op index). Both carry everything observable.
type obs struct {
	kind    byte
	id      int
	now     Time
	next    Time
	hasNext bool
	pending int
	timers  int
}

func (o obs) String() string {
	return fmt.Sprintf("%c%d now=%d next=%d/%v pending=%d timers=%d",
		o.kind, o.id, int64(o.now), int64(o.next), o.hasNext, o.pending, o.timers)
}

// Callback behaviours, fixed when the callback is created so that running
// it consumes no input.
const (
	actLog       = iota // log the firing, nothing else
	actStopSelf         // a ticker stops itself on its n-th firing
	actStopOther        // stop ticker number n (armed, firing or already stopped)
	actAfter            // After(d) a logging one-shot from inside the callback
	actEvery            // on the first firing, Every(now+d, p) a self-stopping ticker
	numActs
)

type action struct {
	kind  int
	n     int
	d, p  Time
	fired int
}

// drvTicker is the driver's record of a ticker it created.
type drvTicker struct {
	stop   stopper
	period Time
	live   bool // not yet stopped, as far as the driver knows
}

// driver applies a byte-encoded op stream to one scheduler.
type driver struct {
	s       sched
	in      []byte
	log     []obs
	tickers []*drvTicker
	nextID  int
}

const (
	// maxTickers bounds the population one program may create.
	maxTickers = 800
	// fireBudget bounds the recurring firings one RunUntil may cross
	// (approximately: it caps the gap by the live tickers' total rate).
	fireBudget = 300
	// endOfTime ends a program: far-future starts and periods reach 40
	// years, so stopping at 100 keeps every re-arm clear of int64 overflow.
	endOfTime = 100 * 365 * 24 * time.Hour
)

// units are the magnitudes durations are drawn from: nanoseconds to hours,
// both sides of 2^22 ns and 2^28 ns (the wheel's slot boundaries), the
// cleaner's 5 s and the system process's 3 min, and 10 years — beyond the
// wheel's ~9-year horizon. A small set, so same-instant collisions between
// independently scheduled events are the rule rather than the exception.
var units = [...]Time{
	1, 1000, 1<<22 - 1, 1 << 22, 1 << 28,
	time.Second, 5 * time.Second, time.Minute, 3 * time.Minute, time.Hour,
	10 * 365 * 24 * time.Hour,
}

func (d *driver) byte() byte {
	if len(d.in) == 0 {
		return 0
	}
	b := d.in[0]
	d.in = d.in[1:]
	return b
}

// dur decodes a delay of 0–3 units.
func (d *driver) dur() Time {
	b := d.byte()
	return units[int(b>>2)%len(units)] * Time(b&3)
}

// period decodes a period of 1–4 units.
func (d *driver) period() Time {
	b := d.byte()
	return units[int(b>>2)%len(units)] * Time(b&3+1)
}

func (d *driver) action() *action {
	return &action{kind: int(d.byte()) % numActs, n: int(d.byte()), d: d.dur(), p: d.period()}
}

func (d *driver) observe(kind byte, id int) {
	next, ok := d.s.NextAt()
	d.log = append(d.log, obs{kind, id, d.s.Now(), next, ok, d.s.Pending(), d.s.Timers()})
}

func (d *driver) id() int {
	d.nextID++
	return d.nextID
}

func (d *driver) stop(tk *drvTicker) {
	tk.stop.Stop()
	tk.live = false
}

// fire is the body of every callback the driver schedules. tk is the
// firing ticker, nil for a one-shot.
func (d *driver) fire(id int, tk *drvTicker, a *action) {
	d.observe('f', id)
	a.fired++
	switch a.kind {
	case actStopSelf:
		if tk != nil && a.fired >= a.n%4+1 {
			d.stop(tk)
		}
	case actStopOther:
		if len(d.tickers) > 0 {
			d.stop(d.tickers[a.n%len(d.tickers)])
		}
	case actAfter:
		id := d.id()
		d.s.After(a.d, func() { d.observe('f', id) })
	case actEvery:
		if a.fired == 1 && len(d.tickers) < maxTickers {
			d.every(d.s.Now()+a.d, a.p, &action{kind: actStopSelf, n: a.n})
		}
	}
}

func (d *driver) oneShot(a *action) func() {
	id := d.id()
	return func() { d.fire(id, nil, a) }
}

func (d *driver) every(start, period Time, a *action) {
	id := d.id()
	tk := &drvTicker{period: period, live: true}
	tk.stop = d.s.Every(start, period, func() { d.fire(id, tk, a) })
	d.tickers = append(d.tickers, tk)
}

// boundedGap shortens a RunUntil gap so that the live tickers cross about
// fireBudget firings at most — a 1 ns ticker must not be run for an hour.
func (d *driver) boundedGap(gap Time) Time {
	rate := 0.0 // firings per nanosecond
	for _, tk := range d.tickers {
		if tk.live {
			rate += 1 / float64(tk.period)
		}
	}
	if rate > 0 && float64(gap)*rate > fireBudget {
		gap = Time(fireBudget / rate)
	}
	return gap
}

// run decodes and applies ops until the input or the time range is used up
// and returns the log.
func (d *driver) run() []obs {
	for op := 0; len(d.in) > 0 && d.s.Now() < endOfTime; op++ {
		now := d.s.Now()
		switch c := d.byte() % 16; {
		case c < 3:
			d.s.At(now+d.dur(), d.oneShot(d.action()))
		case c < 5:
			delay := d.dur()
			if d.byte()&1 != 0 {
				delay = -delay // After clamps a negative delay to zero
			}
			d.s.After(delay, d.oneShot(d.action()))
		case c < 8:
			if len(d.tickers) < maxTickers {
				d.every(now+d.dur(), d.period(), d.action())
			}
		case c == 8:
			// A same-instant batch of hundreds, each with its own copy
			// of one behaviour — a shard's cleaners sharing an instant.
			n := 100 + int(d.byte())
			start, period, a := now+d.dur(), d.period(), d.action()
			for i := 0; i < n && len(d.tickers) < maxTickers; i++ {
				cp := *a
				d.every(start, period, &cp)
			}
		case c < 11:
			if len(d.tickers) > 0 {
				d.stop(d.tickers[int(d.byte())%len(d.tickers)])
			}
		case c < 14:
			for n := int(d.byte())%8 + 1; n > 0 && d.s.Now() < endOfTime; n-- {
				d.s.Step()
			}
		default:
			d.s.RunUntil(now + d.boundedGap(d.dur()))
		}
		d.observe('o', op)
	}
	return d.log
}

// diffSchedulers runs one op stream through both schedulers and returns
// the number of log entries compared and a description of the first point
// where the two differ, or "".
func diffSchedulers(in []byte) (n int, diff string) {
	got := (&driver{s: simSched{New(1)}, in: in}).run()
	want := (&driver{s: &refSched{}, in: in}).run()
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			return i, fmt.Sprintf("log entry %d:\n  sim: %v\n  ref: %v", i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		return len(want), fmt.Sprintf("sim logged %d entries, reference %d", len(got), len(want))
	}
	return len(want), ""
}

// seededOps returns the op stream for one seed.
func seededOps(seed int64) []byte {
	in := make([]byte, 512)
	rand.New(rand.NewSource(seed)).Read(in)
	return in
}

func TestSchedulerMatchesReference(t *testing.T) {
	seeds := int64(300)
	if testing.Short() {
		seeds = 50
	}
	entries := 0
	for seed := int64(1); seed <= seeds; seed++ {
		n, diff := diffSchedulers(seededOps(seed))
		if diff != "" {
			t.Fatalf("seed %d: Sim and the reference scheduler differ at %s", seed, diff)
		}
		entries += n
	}
	// The streams must actually fire things, or the comparison is empty.
	if entries < int(seeds)*1000 {
		t.Fatalf("only %d log entries over %d seeds; the op streams exercise too little", entries, seeds)
	}
}

func FuzzScheduler(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(seededOps(seed))
	}
	// A batch of cleaners, run across their instant, one stopped, run on.
	f.Add([]byte{8, 200, 25, 24, 0, 0, 0, 0, 15, 26, 9, 7, 15, 26, 13, 7, 15, 27})
	// A 4-hourly ticker starting ten years out, stepped to, joined by a
	// one-shot 2 ns later, run on for an hour, stepped twice more.
	f.Add([]byte{5, 41, 39, 0, 0, 0, 0, 11, 3, 2, 2, 0, 0, 0, 0, 15, 37, 11, 1})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) > 2048 {
			in = in[:2048]
		}
		if _, diff := diffSchedulers(in); diff != "" {
			t.Fatalf("Sim and the reference scheduler differ at %s", diff)
		}
	})
}
