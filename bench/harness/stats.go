package harness

import (
	"math"
	"sort"
)

// Median returns the median of vs (0 for an empty slice). vs is not modified.
func Median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// Percentile returns the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending slice, and how many samples lie strictly beyond that rank.
func Percentile(sorted []float64, p float64) (v float64, beyond int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n - rank
}

// tailLadder is the percentiles a tail latency may be reported at, highest
// first. A percentile is only as good as the samples beyond it.
var tailLadder = []float64{99, 95, 90, 75, 50}

// MinBeyond is how many samples must lie beyond a reported tail percentile.
const MinBeyond = 10

// TailPercentile reports the highest percentile of the ladder 99, 95, 90,
// 75, 50 that still has at least MinBeyond samples beyond it, with its
// value. With too few samples for any rung it falls back to the median.
func TailPercentile(sorted []float64) (p, v float64) {
	for _, p := range tailLadder {
		if v, beyond := Percentile(sorted, p); beyond >= MinBeyond {
			return p, v
		}
	}
	v, _ = Percentile(sorted, 50)
	return 50, v
}
