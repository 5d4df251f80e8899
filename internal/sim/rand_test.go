package sim

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestRandDeterministicAndForkIndependent(t *testing.T) {
	a, b := NewRand(9), NewRand(9)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same-seed streams diverged")
		}
	}
	// A fork must not disturb the parent's future sequence relative to an
	// identically-seeded parent that also forked.
	c, d := NewRand(9), NewRand(9)
	_ = c.Fork()
	_ = d.Fork()
	for i := 0; i < 100; i++ {
		if c.Float64() != d.Float64() {
			t.Fatal("forked parents diverged")
		}
	}
}

func TestExpMean(t *testing.T) {
	g := NewRand(1)
	sum := 0.0
	const n = 200000
	for i := 0; i < n; i++ {
		sum += g.Exp(50)
	}
	mean := sum / n
	if mean < 48 || mean > 52 {
		t.Errorf("Exp mean = %g, want ~50", mean)
	}
}

func TestExpDur(t *testing.T) {
	g := NewRand(1)
	var sum time.Duration
	const n = 100000
	for i := 0; i < n; i++ {
		sum += g.ExpDur(time.Second)
	}
	mean := sum / n
	if mean < 950*time.Millisecond || mean > 1050*time.Millisecond {
		t.Errorf("ExpDur mean = %v, want ~1s", mean)
	}
}

func TestLogNormalMedian(t *testing.T) {
	g := NewRand(2)
	const n = 100001
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = g.LogNormal(4096, 1.5)
	}
	// Median estimate by counting below/above.
	below := 0
	for _, v := range vals {
		if v < 4096 {
			below++
		}
	}
	frac := float64(below) / n
	if frac < 0.48 || frac > 0.52 {
		t.Errorf("fraction below median = %g, want ~0.5", frac)
	}
}

func TestParetoBounds(t *testing.T) {
	f := func(seed int64) bool {
		g := NewRand(seed)
		for i := 0; i < 100; i++ {
			b := g.BoundedPareto(100, 1e6, 1.2)
			if b < 100 || b > 1e6+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBoundedParetoDegenerate(t *testing.T) {
	g := NewRand(3)
	if v := g.BoundedPareto(100, 50, 1.0); v != 100 {
		t.Errorf("degenerate bounded pareto = %g, want xm", v)
	}
}

func TestBoundedParetoTailHeaviness(t *testing.T) {
	// With alpha close to 1, a visible fraction of mass must land far into
	// the tail — the property that produces the paper's multi-megabyte files.
	g := NewRand(4)
	const n = 50000
	big := 0
	for i := 0; i < n; i++ {
		if g.BoundedPareto(1024, 20<<20, 1.0) > 1<<20 {
			big++
		}
	}
	frac := float64(big) / n
	if frac < 0.0002 || frac > 0.05 {
		t.Errorf("fraction above 1 MB = %g, want small but nonzero", frac)
	}
}

func TestPickWeights(t *testing.T) {
	g := NewRand(5)
	weights := []float64{1, 0, 3}
	counts := make([]int, 3)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[g.Pick(weights)]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight choice picked %d times", counts[1])
	}
	frac0 := float64(counts[0]) / n
	if frac0 < 0.23 || frac0 > 0.27 {
		t.Errorf("weight-1 choice frac = %g, want ~0.25", frac0)
	}
}

func TestPickDegenerate(t *testing.T) {
	g := NewRand(6)
	if g.Pick(nil) != 0 {
		t.Error("Pick(nil) != 0")
	}
	if g.Pick([]float64{0, 0}) != 0 {
		t.Error("Pick(all zero) != 0")
	}
	if g.Pick([]float64{-1, 2}) != 1 {
		t.Error("negative weights must be skipped")
	}
}

func TestJitterBounds(t *testing.T) {
	f := func(seed int64) bool {
		g := NewRand(seed)
		for i := 0; i < 50; i++ {
			d := g.Jitter(time.Second, 0.2)
			if d < 800*time.Millisecond || d > 1200*time.Millisecond {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNormal(t *testing.T) {
	g := NewRand(7)
	const n = 100000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := g.Normal(10, 3)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	sd := math.Sqrt(sumsq/n - mean*mean)
	if mean < 9.9 || mean > 10.1 || sd < 2.9 || sd > 3.1 {
		t.Errorf("Normal mean=%g sd=%g, want 10/3", mean, sd)
	}
}

func TestRangeBounds(t *testing.T) {
	g := NewRand(8)
	for i := 0; i < 1000; i++ {
		v := g.Range(5, 6)
		if v < 5 || v >= 6 {
			t.Fatalf("Range out of bounds: %g", v)
		}
	}
}
