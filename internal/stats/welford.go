// Package stats provides the statistical machinery used throughout the
// reproduction: streaming mean/standard-deviation accumulators, log-bucketed
// histograms and CDFs (count- and byte-weighted, as used by Figures 1-4 of
// the paper), fixed-width interval aggregation (Table 2), the "percent
// of" helpers and plain-text table rendering for the experiment reports.
// (The paper's "approximately 50 kernel counters" live in the metric
// registry, internal/metrics.)
package stats

import "math"

// Welford accumulates a running mean and variance using Welford's
// online algorithm. The zero value is ready to use.
type Welford struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates one observation.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// Merge folds the observations of other into w.
func (w *Welford) Merge(other Welford) {
	if other.n == 0 {
		return
	}
	if w.n == 0 {
		*w = other
		return
	}
	n := w.n + other.n
	d := other.mean - w.mean
	mean := w.mean + d*float64(other.n)/float64(n)
	m2 := w.m2 + other.m2 + d*d*float64(w.n)*float64(other.n)/float64(n)
	mn, mx := w.min, w.max
	if other.min < mn {
		mn = other.min
	}
	if other.max > mx {
		mx = other.max
	}
	*w = Welford{n: n, mean: mean, m2: m2, min: mn, max: mx}
}

// N returns the number of observations.
func (w *Welford) N() int64 { return w.n }

// Mean returns the arithmetic mean, or 0 with no observations.
func (w *Welford) Mean() float64 { return w.mean }

// Sum returns the sum of all observations.
func (w *Welford) Sum() float64 { return w.mean * float64(w.n) }

// Var returns the population variance, or 0 with fewer than two observations.
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// Stddev returns the population standard deviation.
func (w *Welford) Stddev() float64 { return math.Sqrt(w.Var()) }

// Min returns the smallest observation, or 0 with no observations.
func (w *Welford) Min() float64 { return w.min }

// Max returns the largest observation, or 0 with no observations.
func (w *Welford) Max() float64 { return w.max }
