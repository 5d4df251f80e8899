package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	d := math.Abs(a - b)
	if d <= eps {
		return true
	}
	m := math.Max(math.Abs(a), math.Abs(b))
	return d <= eps*m
}

func TestWelfordEmpty(t *testing.T) {
	var w Welford
	if w.N() != 0 || w.Mean() != 0 || w.Stddev() != 0 || w.Sum() != 0 {
		t.Fatalf("zero-value Welford not all-zero: %+v", w)
	}
}

func TestWelfordSingle(t *testing.T) {
	var w Welford
	w.Add(42)
	if w.N() != 1 {
		t.Errorf("N = %d, want 1", w.N())
	}
	if w.Mean() != 42 {
		t.Errorf("Mean = %g, want 42", w.Mean())
	}
	if w.Stddev() != 0 {
		t.Errorf("Stddev = %g, want 0", w.Stddev())
	}
	if w.Min() != 42 || w.Max() != 42 {
		t.Errorf("Min/Max = %g/%g, want 42/42", w.Min(), w.Max())
	}
}

func TestWelfordKnownValues(t *testing.T) {
	var w Welford
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		w.Add(x)
	}
	if got := w.Mean(); got != 5 {
		t.Errorf("Mean = %g, want 5", got)
	}
	if got := w.Stddev(); got != 2 {
		t.Errorf("Stddev = %g, want 2", got)
	}
	if w.Min() != 2 || w.Max() != 9 {
		t.Errorf("Min/Max = %g/%g, want 2/9", w.Min(), w.Max())
	}
}

// Property: Welford matches the naive two-pass computation.
func TestWelfordMatchesNaive(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		k := int(n%50) + 2
		xs := make([]float64, k)
		var w Welford
		for i := range xs {
			xs[i] = rng.NormFloat64()*100 + 10
			w.Add(xs[i])
		}
		mean := 0.0
		for _, x := range xs {
			mean += x
		}
		mean /= float64(k)
		varsum := 0.0
		for _, x := range xs {
			varsum += (x - mean) * (x - mean)
		}
		varsum /= float64(k)
		return almostEqual(w.Mean(), mean, 1e-9) && almostEqual(w.Var(), varsum, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: merging two accumulators equals accumulating the concatenation.
func TestWelfordMergeEquivalence(t *testing.T) {
	f := func(seed int64, na, nb uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var a, b, all Welford
		for i := 0; i < int(na); i++ {
			x := rng.Float64() * 1000
			a.Add(x)
			all.Add(x)
		}
		for i := 0; i < int(nb); i++ {
			x := rng.Float64() * 1000
			b.Add(x)
			all.Add(x)
		}
		a.Merge(b)
		return a.N() == all.N() &&
			almostEqual(a.Mean(), all.Mean(), 1e-9) &&
			almostEqual(a.Var(), all.Var(), 1e-6) &&
			a.Min() == all.Min() && a.Max() == all.Max()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestWelfordMergeEmpty(t *testing.T) {
	var a, b Welford
	a.Add(1)
	a.Add(3)
	want := a
	a.Merge(b) // merging empty is a no-op
	if a != want {
		t.Errorf("merge with empty changed accumulator: %+v != %+v", a, want)
	}
	b.Merge(a) // merging into empty copies
	if b != want {
		t.Errorf("merge into empty: %+v != %+v", b, want)
	}
}
