package stats

import (
	"math/rand"
	"testing"
	"time"
)

func TestIntervalAggPanicsOnBadWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for zero width")
		}
	}()
	NewIntervalAgg(0)
}

func TestIntervalAggBasic(t *testing.T) {
	a := NewIntervalAgg(10 * time.Second)
	// Two users in interval 0, one in interval 1.
	a.Add(1*time.Second, 1, 100)
	a.Add(2*time.Second, 2, 200)
	a.Add(9*time.Second, 1, 50)
	a.Add(11*time.Second, 1, 300)

	if n := a.NumIntervals(); n != 2 {
		t.Errorf("NumIntervals = %d, want 2", n)
	}
	s := a.Summarize()
	if s.MaxActive != 2 {
		t.Errorf("MaxActive = %d, want 2", s.MaxActive)
	}
	if got := s.ActiveUsers.Mean(); got != 1.5 {
		t.Errorf("mean active users = %g, want 1.5", got)
	}
	// User-intervals: (1,i0)=150, (2,i0)=200, (1,i1)=300.
	if s.PerUser.N() != 3 {
		t.Errorf("user-intervals = %d, want 3", s.PerUser.N())
	}
	if s.PeakUser != 300 {
		t.Errorf("PeakUser = %g, want 300", s.PeakUser)
	}
	if s.PeakTotal != 350 {
		t.Errorf("PeakTotal = %g, want 350", s.PeakTotal)
	}
}

func TestIntervalAggTouch(t *testing.T) {
	a := NewIntervalAgg(time.Minute)
	// A user with a trace record but zero bytes in an interval still
	// counts as active.
	a.Add(30*time.Second, 7, 0)
	s := a.Summarize()
	if s.MaxActive != 1 {
		t.Errorf("zero-byte Add did not mark user active: MaxActive = %d", s.MaxActive)
	}
	if s.PerUser.Sum() != 0 {
		t.Errorf("zero-byte Add added value: %g", s.PerUser.Sum())
	}
}

func TestIntervalBoundaries(t *testing.T) {
	a := NewIntervalAgg(10 * time.Second)
	if a.Index(0) != 0 || a.Index(9999*time.Millisecond) != 0 {
		t.Error("values inside first interval mis-indexed")
	}
	if a.Index(10*time.Second) != 1 {
		t.Error("boundary value should open a new interval")
	}
}

func TestEmptyIntervalsNotCounted(t *testing.T) {
	// The paper averages over intervals with activity; silent intervals
	// between bursts must not dilute the per-interval statistics.
	a := NewIntervalAgg(10 * time.Second)
	a.Add(5*time.Second, 1, 10)
	a.Add(95*time.Second, 1, 10)
	if n := a.NumIntervals(); n != 2 {
		t.Errorf("NumIntervals = %d, want 2 (gaps must not count)", n)
	}
}

// TestSummarizeIsBitStable pins the fold order: the same cells, inserted
// in any order and summarized any number of times, give the same Summary
// to the last bit (compared with ==, not a tolerance). Table 2 is printed
// from these values, and byte-identity goldens sit downstream of it.
func TestSummarizeIsBitStable(t *testing.T) {
	type cell struct {
		t   time.Duration
		key int
		v   float64
	}
	rng := rand.New(rand.NewSource(1))
	var cells []cell
	for idx := 0; idx < 200; idx++ {
		for key, users := 0, 1+rng.Intn(12); key < users; key++ {
			// One value per (interval, key): Add itself is order-sensitive
			// when a cell is hit twice, and that is the caller's order.
			cells = append(cells, cell{time.Duration(idx) * 10 * time.Second, key, rng.Float64() * 1e6})
		}
	}
	var want Summary
	for rep := 0; rep < 20; rep++ {
		rng.Shuffle(len(cells), func(i, j int) { cells[i], cells[j] = cells[j], cells[i] })
		a := NewIntervalAgg(10 * time.Second)
		for _, c := range cells {
			a.Add(c.t, c.key, c.v)
		}
		got := a.Summarize()
		if rep == 0 {
			want = got
		} else if got != want {
			t.Fatalf("repeat %d: Summarize differs from the first repeat:\n got %+v\nwant %+v", rep, got, want)
		}
	}
}
