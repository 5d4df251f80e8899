package live

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spritefs/internal/sim"
)

// The tests in this file pin what a caller of the in-process request path
// can observe — which reply reaches which request, that a deadline holds
// whatever the loop is doing, that no submission is slept through, and the
// order submissions run in — without looking at how the path is built.

// echoExec is a model that answers with what the request says: the
// request's Handle comes back as the reply's, and its Length is the
// simulated service time charged.
func echoExec(req *Request) Response {
	return Response{Handle: req.Handle, SimLat: time.Duration(req.Length)}
}

// TestDispatcherKeepsRepliesApart is the life-cycle test. Many goroutines
// share one dispatcher; a seeded tenth of their requests are charged a
// service time past the deadline, so abandoned attempts and their late
// deliveries interleave with everything else in flight, and another tenth
// one that lands on the deadline, so delivery and expiry race. Every reply
// must be the request's own and no earlier than its service time, every
// ErrDeadline must come at the deadline — not before it, not long after —
// and once the clock stops nothing hangs.
//
// "Not long after" is measured against what the process could do at all: a
// shared host takes the CPU away for tens of milliseconds at a time, so a
// goroutine that does nothing but sleep a millisecond keeps the worst
// oversleep it saw, and the latest ErrDeadline may be that much later.
func TestDispatcherKeepsRepliesApart(t *testing.T) {
	const (
		workers  = 64
		attempts = 2000
		deadline = 5 * time.Millisecond
		slack    = 50 * time.Millisecond
	)
	wc := New(sim.New(1))
	wc.Start()
	d := NewDispatcher(wc, echoExec)

	var worstStall, worstLate atomic.Int64
	atMost := func(worst *atomic.Int64, d time.Duration) {
		for w := worst.Load(); int64(d) > w && !worst.CompareAndSwap(w, int64(d)); w = worst.Load() {
		}
	}
	watching := make(chan struct{})
	defer close(watching)
	go func() {
		for {
			select {
			case <-watching:
				return
			default:
			}
			t0 := time.Now()
			time.Sleep(time.Millisecond)
			atMost(&worstStall, time.Since(t0)-time.Millisecond)
		}
	}()
	defer func() {
		time.Sleep(2 * time.Millisecond) // the watcher's current sleep ends
		late, stall := time.Duration(worstLate.Load()), time.Duration(worstStall.Load())
		t.Logf("latest ErrDeadline %v after its deadline, worst oversleep %v", late, stall)
		if late > slack+stall {
			t.Errorf("an ErrDeadline came %v after its deadline; the process itself overslept by at most %v", late, stall)
		}
	}()

	// attempt issues one tagged request and checks everything that can be
	// checked about its outcome alone.
	attempt := func(tag uint64, simLat time.Duration) error {
		t0 := time.Now()
		resp, err := d.Do(Request{Verb: VerbRead, Handle: tag, Length: int64(simLat)}, deadline)
		took := time.Since(t0)
		switch {
		case err == nil:
			if resp.Handle != tag {
				t.Errorf("request %#x received the reply to %#x", tag, resp.Handle)
			}
			if resp.SimLat != simLat || took < simLat {
				t.Errorf("request %#x: reply after %v with service time %v, want %v", tag, took, resp.SimLat, simLat)
			}
		case errors.Is(err, ErrDeadline):
			if took < deadline {
				t.Errorf("request %#x: ErrDeadline after %v, deadline %v", tag, took, deadline)
			}
			atMost(&worstLate, took-deadline)
		case errors.Is(err, ErrStopped):
		default:
			t.Errorf("request %#x: %v", tag, err)
		}
		if err != nil && resp != (Response{}) {
			t.Errorf("request %#x: %v came with a reply %+v", tag, err, resp)
		}
		return err
	}

	var (
		wg        sync.WaitGroup
		replies   atomic.Int64
		abandoned atomic.Int64
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w + 1)))
			for i := 0; i < attempts; i++ {
				var simLat time.Duration
				switch k := rng.Intn(10); {
				case k == 0:
					simLat = 2 * deadline // abandoned, delivered late
				case k == 1:
					simLat = deadline - time.Duration(rng.Intn(int(time.Millisecond))) // either may win
				case k < 6:
					simLat = time.Duration(1+rng.Intn(200)) * time.Microsecond
				}
				err := attempt(uint64(w)<<32|uint64(i), simLat)
				switch {
				case err == nil:
					replies.Add(1)
				case errors.Is(err, ErrDeadline):
					abandoned.Add(1)
				default:
					t.Errorf("worker %d: %v on a running clock", w, err)
					return
				}
			}
		}(w)
	}
	wait := func(what string) {
		finished := make(chan struct{})
		go func() { wg.Wait(); close(finished) }()
		select {
		case <-finished:
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: requests still in flight after 30s", what)
		}
	}
	wait("running clock")
	if r, a := replies.Load(), abandoned.Load(); r < workers*attempts/2 || a < workers*attempts/10/2 {
		t.Errorf("%d replies and %d abandonments: the mix the test is there for did not happen", r, a)
	}

	// The same traffic across a Stop: requests in flight end in a reply,
	// ErrDeadline or ErrStopped; requests made after Stop has returned end
	// in ErrStopped; and all of them end.
	var stopped atomic.Bool
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(-w - 1)))
			for i := 0; ; i++ {
				after := stopped.Load()
				err := attempt(1<<63|uint64(w)<<32|uint64(i), time.Duration(rng.Intn(3))*deadline)
				if after && !errors.Is(err, ErrStopped) {
					t.Errorf("worker %d: %v after Stop returned, want ErrStopped", w, err)
				}
				if errors.Is(err, ErrStopped) {
					if after {
						return
					}
					continue // Stop is under way; go on until it is seen to have returned
				}
			}
		}(w)
	}
	time.Sleep(20 * deadline)
	wc.Stop()
	stopped.Store(true)
	wait("stopped clock")
}

// TestWallClockNoLostWakeup submits to a loop that is asleep until an event
// seconds off, and to one that is on its way there: a thousand closures
// each submitted once the loop has had time to block, then a thousand each
// submitted while the loop is held inside an earlier one — after it last
// looked at its queue, before it next sleeps. A submission the loop sleeps
// through waits for that event.
func TestWallClockNoLostWakeup(t *testing.T) {
	wc := New(sim.New(1))
	wc.Start()
	defer wc.Stop()
	if err := wc.Call(func() { wc.Sim().Every(3*time.Second, 3*time.Second, func() {}) }); err != nil {
		t.Fatal(err)
	}

	// submit queues a closure, lets go of whatever holds the loop, and
	// times the closure's turn.
	submit := func(kind string, i int, holding chan struct{}) {
		ran := make(chan struct{})
		t0 := time.Now()
		if !wc.Go(func() { close(ran) }) {
			t.Fatalf("%s submission %d refused", kind, i)
		}
		close(holding)
		<-ran
		if took := time.Since(t0); took > 50*time.Millisecond {
			t.Fatalf("%s submission %d ran after %v", kind, i, took)
		}
	}
	for i := 0; i < 1000; i++ {
		time.Sleep(200 * time.Microsecond)
		submit("isolated", i, make(chan struct{}))
	}
	for i := 0; i < 1000; i++ {
		entered, holding := make(chan struct{}), make(chan struct{})
		wc.Go(func() { close(entered); <-holding })
		<-entered
		submit("mid-pass", i, holding)
	}
}

// TestWallClockSubmissionOrder pins where a submission runs: after every
// event that was already due, in the order it arrived in, and before any
// event a submission schedules for the same instant. The instant is the
// one the simulator has reached: a simulator handed over ahead of the wall
// keeps its clock, and what is submitted meanwhile waits for the wall and
// runs at that very instant — after the events queued there, before any
// queued a nanosecond later.
func TestWallClockSubmissionOrder(t *testing.T) {
	const n = 100
	check := func(t *testing.T, log, want []string) {
		t.Helper()
		if len(log) != len(want) {
			t.Fatalf("%d closures ran, want %d: %v", len(log), len(want), log)
		}
		for i := range want {
			if log[i] != want[i] {
				t.Fatalf("position %d ran %q, want %q\nall: %v", i, log[i], want[i], log)
			}
		}
	}

	t.Run("behind the due events", func(t *testing.T) {
		wc := New(sim.New(1))
		wc.Start()
		defer wc.Stop()

		var log []string // loop-only until the final Call has returned
		held, gate := make(chan struct{}), make(chan struct{})
		wc.Go(func() {
			wc.Sim().After(time.Millisecond, func() { log = append(log, "due") })
			close(held)
			<-gate
		})
		<-held
		// The loop is held inside a closure: everything submitted now is
		// applied in one pass, by which time the event above is 5 ms overdue.
		for i := 0; i < n; i++ {
			wc.Go(func() {
				log = append(log, fmt.Sprint("sub ", i))
				wc.Sim().After(0, func() { log = append(log, fmt.Sprint("child ", i)) })
			})
		}
		time.Sleep(5 * time.Millisecond)
		close(gate)
		if err := wc.Call(func() {}); err != nil {
			t.Fatal(err)
		}
		if err := wc.Call(func() {}); err != nil { // a pass later: the children have run
			t.Fatal(err)
		}

		want := []string{"due"}
		for i := 0; i < n; i++ {
			want = append(want, fmt.Sprint("sub ", i))
		}
		for i := 0; i < n; i++ {
			want = append(want, fmt.Sprint("child ", i))
		}
		check(t, log, want)
	})

	t.Run("at the simulator's instant", func(t *testing.T) {
		const ahead = 200 * time.Millisecond
		s := sim.New(1)
		s.RunUntil(ahead)
		var log []string // loop-only until the final Call has returned
		s.At(ahead, func() { log = append(log, "queued") })
		s.At(ahead+1, func() { log = append(log, "later") })
		wc := New(s)
		wc.Start()
		defer wc.Stop()
		for i := 0; i < n; i++ {
			wc.Go(func() { log = append(log, fmt.Sprint("sub ", i)) })
		}
		if at := wc.Now(); at >= ahead/2 {
			t.Skipf("submitting took until %v, too near the simulator's %v to tell", at, ahead)
		}
		if err := wc.Call(func() {}); err != nil {
			t.Fatal(err)
		}
		if err := wc.Call(func() {}); err != nil { // past the instant: "later" has run
			t.Fatal(err)
		}

		want := []string{"queued"}
		for i := 0; i < n; i++ {
			want = append(want, fmt.Sprint("sub ", i))
		}
		check(t, log, append(want, "later"))
	})
}

// TestDispatcherDoZeroAlloc gates the request path's steady state: a Do
// through a warm dispatcher allocates nothing, whether the reply comes at
// once, after a simulated service time, or never — the last being the one
// ending in which the loop, not the caller, puts the call record back.
// `make allocscheck` runs this.
func TestDispatcherDoZeroAlloc(t *testing.T) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("under the race detector sync.Pool drops a quarter of what it is given, at random")
			}
		}
	}
	wc := New(sim.New(1))
	wc.Start()
	defer wc.Stop()
	d := NewDispatcher(wc, echoExec)
	cases := []struct {
		name             string
		simLat, deadline time.Duration
		runs             int
	}{
		{"immediate reply", 0, time.Second, 1000},
		{"reply after a service time", 50 * time.Microsecond, time.Second, 200},
		{"abandoned", 4 * time.Millisecond, 2 * time.Millisecond, 100},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := Request{Verb: VerbRead, Handle: 7, Length: int64(tc.simLat)}
			do := func() {
				// (A reply may still beat a deadline the host made late.)
				if _, err := d.Do(req, tc.deadline); err != nil && tc.simLat < tc.deadline {
					t.Errorf("service time %v, deadline %v: %v", tc.simLat, tc.deadline, err)
				}
			}
			for i := 0; i < 10; i++ {
				do() // as many records as are ever out at once now exist
			}
			if allocs := testing.AllocsPerRun(tc.runs, do); allocs != 0 {
				t.Fatalf("Do allocated %.1f/op in steady state, want 0", allocs)
			}
		})
	}
}

// TestWallClockGoZeroAlloc gates the loop's side of it: a submission that
// wakes the loop, runs and lets it go back to sleep allocates nothing — no
// buffer, no timer. `make allocscheck` runs this.
func TestWallClockGoZeroAlloc(t *testing.T) {
	wc := New(sim.New(1))
	wc.Start()
	defer wc.Stop()
	ran := make(chan struct{})
	fn := func() { ran <- struct{}{} }
	pass := func() {
		wc.Go(fn)
		<-ran
	}
	for i := 0; i < 10; i++ {
		pass() // both submission buffers have room for one
	}
	if allocs := testing.AllocsPerRun(1000, pass); allocs != 0 {
		t.Fatalf("Go allocated %.1f/op in steady state, want 0", allocs)
	}
}

// BenchmarkDispatcherDo is the request path with nothing behind it: a bare
// clock and a model that returns at once, called from one goroutine and
// from 2048.
func BenchmarkDispatcherDo(b *testing.B) {
	do := func(b *testing.B, d *Dispatcher) bool {
		_, err := d.Do(Request{Verb: VerbGetattr, Handle: 7}, time.Second)
		if err != nil {
			b.Error(err)
		}
		return err == nil
	}
	for _, goroutines := range []int{1, 2048} {
		b.Run(fmt.Sprint("goroutines=", goroutines), func(b *testing.B) {
			wc := New(sim.New(1))
			wc.Start()
			defer wc.Stop()
			d := NewDispatcher(wc, echoExec)
			b.ReportAllocs()
			b.ResetTimer()
			if goroutines == 1 {
				for i := 0; i < b.N && do(b, d); i++ {
				}
				return
			}
			// RunParallel starts GOMAXPROCS goroutines times the parallelism.
			b.SetParallelism((goroutines + runtime.GOMAXPROCS(0) - 1) / runtime.GOMAXPROCS(0))
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() && do(b, d) {
				}
			})
		})
	}
}
