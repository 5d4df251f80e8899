package stats

import (
	"slices"
	"time"
)

// IntervalAgg divides a time axis into fixed-width intervals and accumulates
// a float64 per (interval, key) pair. It drives Table 2 of the paper, where
// each trace is split into 10-minute and 10-second intervals and per-user
// throughput is computed per interval.
type IntervalAgg struct {
	width time.Duration
	// cells maps interval index -> key -> accumulated value.
	cells map[int64]map[int]float64
}

// NewIntervalAgg returns an aggregator with the given interval width.
// It panics on a non-positive width.
func NewIntervalAgg(width time.Duration) *IntervalAgg {
	if width <= 0 {
		panic("stats: non-positive interval width")
	}
	return &IntervalAgg{width: width, cells: make(map[int64]map[int]float64)}
}

// Index returns the interval index containing time t.
func (a *IntervalAgg) Index(t time.Duration) int64 { return int64(t / a.width) }

// Add accumulates v for key at time t. Keys are small integers (user IDs).
func (a *IntervalAgg) Add(t time.Duration, key int, v float64) {
	idx := a.Index(t)
	m := a.cells[idx]
	if m == nil {
		m = make(map[int]float64)
		a.cells[idx] = m
	}
	m[key] += v
}

// NumIntervals returns the number of intervals with at least one active key.
func (a *IntervalAgg) NumIntervals() int { return len(a.cells) }

// Width returns the interval width.
func (a *IntervalAgg) Width() time.Duration { return a.width }

// Summary describes the per-interval activity statistics that Table 2
// reports for one interval width.
type Summary struct {
	// ActiveUsers aggregates the number of active keys per interval.
	ActiveUsers Welford
	// MaxActive is the maximum number of simultaneously active keys.
	MaxActive int
	// PerUser aggregates per-(interval,key) accumulated values: each
	// user-interval is one observation, matching the paper's "standard
	// deviations of each user-interval from the long-term average across
	// all user-intervals".
	PerUser Welford
	// PeakUser is the largest single (interval,key) value.
	PeakUser float64
	// PeakTotal is the largest per-interval sum over keys.
	PeakTotal float64
}

// Summarize computes activity statistics over all populated intervals.
// It folds in ascending (interval, key) order: float addition is not
// associative, and map order would change the last bits from run to run.
func (a *IntervalAgg) Summarize() Summary {
	var s Summary
	idxs := make([]int64, 0, len(a.cells))
	// order-free: collected, then sorted.
	for idx := range a.cells {
		idxs = append(idxs, idx)
	}
	slices.Sort(idxs)
	for _, idx := range idxs {
		m := a.cells[idx]
		keys := make([]int, 0, len(m))
		// order-free: collected, then sorted.
		for k := range m {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		if len(m) > s.MaxActive {
			s.MaxActive = len(m)
		}
		s.ActiveUsers.Add(float64(len(m)))
		total := 0.0
		for _, k := range keys {
			v := m[k]
			s.PerUser.Add(v)
			if v > s.PeakUser {
				s.PeakUser = v
			}
			total += v
		}
		if total > s.PeakTotal {
			s.PeakTotal = total
		}
	}
	return s
}
