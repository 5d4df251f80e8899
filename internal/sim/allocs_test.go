package sim

import (
	"testing"
	"time"
)

// The scheduler's hot paths are required to be allocation-free in steady
// state: once the event arena and the heap slice have grown to their
// high-water marks, At/After/Step and ticker firings must not touch the
// garbage collector. `make allocscheck` runs these gates.

func TestAfterZeroAllocSteadyState(t *testing.T) {
	s := New(1)
	fn := func() {}
	allocs := testing.AllocsPerRun(1000, func() {
		s.After(time.Microsecond, fn)
		s.Step()
	})
	if allocs != 0 {
		t.Fatalf("After+Step allocated %.1f/op in steady state, want 0", allocs)
	}
}

func TestEveryTickZeroAllocSteadyState(t *testing.T) {
	s := New(1)
	ticks := 0
	tk := s.Every(0, time.Millisecond, func() { ticks++ })
	defer tk.Stop()
	allocs := testing.AllocsPerRun(1000, func() {
		s.Step()
	})
	if allocs != 0 {
		t.Fatalf("ticker firing allocated %.1f/op in steady state, want 0", allocs)
	}
	if ticks == 0 {
		t.Fatal("ticker never fired")
	}
}

// TestEveryTickZeroAllocAtPopulation is the same gate over a shard-sized
// population sharing one instant: firings sift through a deep heap and
// still must not allocate.
func TestEveryTickZeroAllocAtPopulation(t *testing.T) {
	s := New(1)
	ticks := 0
	for i := 0; i < 1000; i++ {
		s.Every(time.Second, 5*time.Second, func() { ticks++ })
	}
	s.RunUntil(time.Second) // every entry has been out of and back in the heap
	allocs := testing.AllocsPerRun(5000, func() {
		s.Step()
	})
	if allocs != 0 {
		t.Fatalf("ticker firing among 1000 allocated %.1f/op in steady state, want 0", allocs)
	}
	if ticks < 6000 {
		t.Fatalf("%d firings, want every Step to have fired one", ticks)
	}
}

// TestTickerChurnZeroAllocGrowth has callbacks stop a sibling and start its
// replacement, over and over — by another ticker, or by a one-shot event,
// which takes the stopped ticker's slot from the one arena both kinds
// share. Every allocates the *Ticker it returns and nothing else: the
// freed arena slot and heap position are reused, so neither slice grows
// once the population has been reached.
func TestTickerChurnZeroAllocGrowth(t *testing.T) {
	const n = 200
	for _, oneShots := range []bool{false, true} {
		name := "ticker for ticker"
		if oneShots {
			name = "one-shot for ticker"
		}
		t.Run(name, func(t *testing.T) {
			s := New(1)
			tks := make([]*Ticker, n)
			noop := func() {}
			standIns := 0
			for i := range tks {
				i := i
				tks[i] = s.Every(time.Duration(i%5)*time.Second, 5*time.Second, func() {
					sib := (i + 1) % n
					if tks[sib] == nil {
						return // its one-shot stand-in is still pending
					}
					tks[sib].Stop()
					d := time.Duration(i%3) * time.Second
					if oneShots && sib%2 == 1 {
						// Odd siblings come back as a one-shot event that
						// becomes a ticker again when it fires, so the two
						// kinds keep trading slots.
						tks[sib] = nil
						standIns++
						s.After(d, func() { tks[sib] = s.Every(s.Now()+5*time.Second, 5*time.Second, noop) })
						return
					}
					tks[sib] = s.Every(s.Now()+d, 5*time.Second, noop)
				})
			}
			s.RunUntil(30 * time.Second)
			pool, heapCap, pending := len(s.q.pool), cap(s.q.heap), s.Pending()
			allocs := testing.AllocsPerRun(2000, func() {
				s.Step()
			})
			if allocs > 1 {
				t.Fatalf("a firing that replaces a sibling allocated %.1f/op, want at most one (Every's *Ticker, or the stand-in's closure)", allocs)
			}
			if got := len(s.q.pool); got != pool {
				t.Fatalf("event arena grew from %d to %d slots under stop/start churn", pool, got)
			}
			if got := cap(s.q.heap); got != heapCap {
				t.Fatalf("heap slice grew from cap %d to %d under stop/start churn", heapCap, got)
			}
			if got := s.Pending(); got != pending {
				t.Fatalf("pending went from %d to %d under one-for-one replacement", pending, got)
			}
			if oneShots && standIns < 100 {
				t.Fatalf("only %d one-shot stand-ins were scheduled: the two kinds did not trade slots", standIns)
			}
		})
	}
}

// TestTickerStopRecyclesEvent pins the Ticker.Stop contract: stopping a
// ticker removes its queued entry from the heap immediately — no tombstone
// is left behind — and the arena slot is recycled, so repeated start/stop
// cycles neither grow Pending nor leak pool slots. The arena is the
// one-shot events' too: a stopped ticker's slot is the next After's.
func TestTickerStopRecyclesEvent(t *testing.T) {
	s := New(1)
	base := s.Pending()
	for i := 0; i < 1000; i++ {
		tk := s.Every(s.Now()+time.Second, time.Second, func() {})
		if got := s.Pending(); got != base+1 {
			t.Fatalf("cycle %d: pending = %d after start, want %d", i, got, base+1)
		}
		tk.Stop()
		if got := s.Pending(); got != base {
			t.Fatalf("cycle %d: pending = %d after stop, want %d (tombstone left behind?)", i, got, base)
		}
		tk.Stop() // double-stop must be a no-op
		if i%2 == 1 {
			s.After(0, func() {}) // takes the slot the ticker left
			if got := s.EventPoolFree(); got != 0 {
				t.Fatalf("cycle %d: %d free slots with a one-shot pending, want 0 (it did not take the stopped ticker's)", i, got)
			}
			s.Step()
		}
	}
	if got := len(s.q.pool); got != 1 {
		t.Fatalf("event arena grew to %d slots over 1000 start/stop cycles, want 1 (slot not recycled)", got)
	}
	if got := s.EventPoolFree(); got != 1 {
		t.Fatalf("free list has %d slots, want 1", got)
	}
	if got := s.WheelTimers(); got != 0 {
		t.Fatalf("WheelTimers = %d after all tickers stopped, want 0", got)
	}
}

// TestTickerStopFromOtherEvent stops an armed ticker from an unrelated
// one-shot event and checks the cancelled firing never happens.
func TestTickerStopFromOtherEvent(t *testing.T) {
	s := New(1)
	fired := 0
	tk := s.Every(10*time.Millisecond, 10*time.Millisecond, func() { fired++ })
	s.At(25*time.Millisecond, func() { tk.Stop() })
	s.RunUntil(time.Second)
	if fired != 2 {
		t.Fatalf("ticker fired %d times, want 2 (at 10ms and 20ms, stopped at 25ms)", fired)
	}
	if got := s.Pending(); got != 0 {
		t.Fatalf("pending = %d after stop, want 0", got)
	}
}

// TestFarFutureRearmKeepsOrder mixes tickers of very different periods
// with a one-shot event and checks the merged firing order stays exact;
// the "far" ticker's re-arm lands more than eleven years out.
func TestFarFutureRearmKeepsOrder(t *testing.T) {
	s := New(1)
	var order []string
	s.Every(3*time.Hour, 100000*time.Hour, func() { order = append(order, "far") })
	s.Every(time.Hour, time.Hour, func() { order = append(order, "hourly") })
	s.At(30*time.Minute, func() { order = append(order, "oneshot") })
	s.RunUntil(3 * time.Hour)
	want := []string{"oneshot", "hourly", "hourly", "far", "hourly"}
	if len(order) != len(want) {
		t.Fatalf("got %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("firing %d: got %q, want %q (full order %v)", i, order[i], want[i], order)
		}
	}
}

// TestFarFutureTickerFires arms a ticker whose first firing is eleven
// years out and checks it fires at its exact time and re-arms one period
// later.
func TestFarFutureTickerFires(t *testing.T) {
	s := New(1)
	far := 11 * 365 * 24 * time.Hour
	fired := 0
	tk := s.Every(far, 24*time.Hour, func() { fired++ })
	s.RunUntil(far)
	if fired != 1 {
		t.Fatalf("far-future ticker fired %d times by %v, want 1", fired, far)
	}
	if at, ok := s.NextAt(); !ok || at != far+24*time.Hour {
		t.Fatalf("re-arm at %v (ok=%v), want %v", at, ok, far+24*time.Hour)
	}
	tk.Stop()
}
