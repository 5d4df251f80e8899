package stats

import (
	"fmt"
	"math"
	"sort"
)

// Hist is a log-bucketed histogram over positive values. It is the engine
// behind the cumulative-distribution figures in the paper: every sample may
// carry an arbitrary weight, so the same histogram type serves both the
// "weighted by number of runs/files" and the "weighted by bytes" variants
// of Figures 1, 2 and 4.
//
// Buckets are geometric: perDecade buckets per factor of ten between lo and
// hi. Samples below lo fall into an underflow bucket; samples above hi into
// an overflow bucket. The zero value is not usable; construct with NewHist.
type Hist struct {
	lo, hi    float64
	perDecade int
	logLo     float64
	scale     float64 // buckets per unit of log10
	weights   []float64
	total     float64
	n         int64
}

// NewHist returns a histogram spanning [lo, hi] with perDecade geometric
// buckets per decade. It panics if lo <= 0, hi <= lo, or perDecade < 1,
// since these are programming errors in the analysis code.
func NewHist(lo, hi float64, perDecade int) *Hist {
	if lo <= 0 || hi <= lo || perDecade < 1 {
		panic(fmt.Sprintf("stats: invalid histogram bounds lo=%g hi=%g perDecade=%d", lo, hi, perDecade))
	}
	decades := math.Log10(hi / lo)
	nb := int(math.Ceil(decades*float64(perDecade))) + 1
	return &Hist{
		lo:        lo,
		hi:        hi,
		perDecade: perDecade,
		logLo:     math.Log10(lo),
		scale:     float64(perDecade),
		// +2 for underflow and overflow buckets.
		weights: make([]float64, nb+2),
	}
}

func (h *Hist) bucket(v float64) int {
	if v < h.lo {
		return 0
	}
	if v >= h.hi {
		return len(h.weights) - 1
	}
	b := int((math.Log10(v)-h.logLo)*h.scale) + 1
	if b >= len(h.weights)-1 {
		b = len(h.weights) - 2
	}
	return b
}

// upper returns the upper bound of bucket index b (1-based interior).
func (h *Hist) upper(b int) float64 {
	if b == 0 {
		return h.lo
	}
	if b >= len(h.weights)-1 {
		return math.Inf(1)
	}
	u := h.lo * math.Pow(10, float64(b)/h.scale)
	if u > h.hi {
		u = h.hi
	}
	return u
}

// Add records value v with weight w. Non-positive weights are ignored;
// non-positive values are counted in the underflow bucket.
func (h *Hist) Add(v, w float64) {
	if w <= 0 {
		return
	}
	h.weights[h.bucket(v)] += w
	h.total += w
	h.n++
}

// Add1 records value v with weight 1.
func (h *Hist) Add1(v float64) { h.Add(v, 1) }

// N returns the number of samples added.
func (h *Hist) N() int64 { return h.n }

// Total returns the sum of weights added.
func (h *Hist) Total() float64 { return h.total }

// CDFPoint is one point of a cumulative distribution: the cumulative
// fraction of total weight at values <= X.
type CDFPoint struct {
	X    float64
	Frac float64
}

// CDF returns the cumulative distribution as a sequence of points at bucket
// upper bounds, skipping empty leading buckets. The final point has
// Frac == 1 (if any weight was added).
func (h *Hist) CDF() []CDFPoint {
	var out []CDFPoint
	if h.total == 0 {
		return out
	}
	cum := 0.0
	started := false
	for b := 0; b < len(h.weights); b++ {
		cum += h.weights[b]
		if !started && h.weights[b] == 0 {
			continue
		}
		started = true
		x := h.upper(b)
		if math.IsInf(x, 1) {
			x = h.hi
		}
		out = append(out, CDFPoint{X: x, Frac: cum / h.total})
	}
	return out
}

// FracAtOrBelow returns the fraction of total weight recorded at values
// less than or equal to x.
func (h *Hist) FracAtOrBelow(x float64) float64 {
	if h.total == 0 {
		return 0
	}
	b := h.bucket(x)
	cum := 0.0
	for i := 0; i <= b; i++ {
		cum += h.weights[i]
	}
	return cum / h.total
}

// Quantile returns the smallest bucket upper bound at which the cumulative
// fraction reaches p (0 < p <= 1). With no samples it returns 0.
func (h *Hist) Quantile(p float64) float64 {
	if h.total == 0 {
		return 0
	}
	target := p * h.total
	cum := 0.0
	for b := 0; b < len(h.weights); b++ {
		cum += h.weights[b]
		if cum >= target {
			u := h.upper(b)
			if math.IsInf(u, 1) {
				return h.hi
			}
			return u
		}
	}
	return h.hi
}

// Merge folds other into h. Both histograms must have identical geometry;
// Merge panics otherwise (a programming error).
func (h *Hist) Merge(other *Hist) {
	if h.lo != other.lo || h.hi != other.hi || h.perDecade != other.perDecade {
		panic("stats: merging histograms with different geometry")
	}
	for i, w := range other.weights {
		h.weights[i] += w
	}
	h.total += other.total
	h.n += other.n
}

// ExactCDF computes a CDF from explicit (value, weight) samples without
// bucketing. It is used by tests to validate Hist and by small analyses
// where exactness matters (e.g. per-trace min/max columns).
type ExactCDF struct {
	vals    []float64
	weights []float64
	total   float64
	sorted  bool
}

// Add records one weighted sample.
func (e *ExactCDF) Add(v, w float64) {
	if w <= 0 {
		return
	}
	e.vals = append(e.vals, v)
	e.weights = append(e.weights, w)
	e.total += w
	e.sorted = false
}

func (e *ExactCDF) sort() {
	if e.sorted {
		return
	}
	idx := make([]int, len(e.vals))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return e.vals[idx[a]] < e.vals[idx[b]] })
	nv := make([]float64, len(e.vals))
	nw := make([]float64, len(e.vals))
	for i, j := range idx {
		nv[i], nw[i] = e.vals[j], e.weights[j]
	}
	e.vals, e.weights = nv, nw
	e.sorted = true
}

// FracAtOrBelow returns the fraction of weight at values <= x.
func (e *ExactCDF) FracAtOrBelow(x float64) float64 {
	if e.total == 0 {
		return 0
	}
	e.sort()
	cum := 0.0
	for i, v := range e.vals {
		if v > x {
			break
		}
		cum += e.weights[i]
	}
	return cum / e.total
}

// Quantile returns the smallest sample value at which the cumulative weight
// fraction reaches p.
func (e *ExactCDF) Quantile(p float64) float64 {
	if e.total == 0 {
		return 0
	}
	e.sort()
	target := p * e.total
	cum := 0.0
	for i, v := range e.vals {
		cum += e.weights[i]
		if cum >= target {
			return v
		}
	}
	return e.vals[len(e.vals)-1]
}
