package sim

import (
	"math"
	"math/rand"
	"time"
)

// Rand wraps math/rand with the distributions the workload model needs:
// exponential inter-arrival times, log-normal file sizes, bounded Pareto
// tails for the multi-megabyte files the paper highlights, and weighted
// discrete choices for application and access-type mixes.
type Rand struct {
	r *rand.Rand
}

// NewRand returns a deterministic source seeded with seed.
func NewRand(seed int64) *Rand {
	return &Rand{r: rand.New(rand.NewSource(seed))}
}

// Fork derives an independent deterministic stream from this one. Used to
// give each simulated client its own stream so that adding a client does
// not perturb the others' sequences.
func (g *Rand) Fork() *Rand { return NewRand(g.r.Int63()) }

// Float64 returns a uniform value in [0,1).
func (g *Rand) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform int in [0,n). n must be positive.
func (g *Rand) Intn(n int) int { return g.r.Intn(n) }

// Int63n returns a uniform int64 in [0,n). n must be positive.
func (g *Rand) Int63n(n int64) int64 { return g.r.Int63n(n) }

// Bool returns true with probability p.
func (g *Rand) Bool(p float64) bool { return g.r.Float64() < p }

// Range returns a uniform value in [lo, hi).
func (g *Rand) Range(lo, hi float64) float64 { return lo + (hi-lo)*g.r.Float64() }

// Exp returns an exponentially distributed value with the given mean.
func (g *Rand) Exp(mean float64) float64 { return g.r.ExpFloat64() * mean }

// ExpDur returns an exponentially distributed duration with the given mean.
func (g *Rand) ExpDur(mean time.Duration) time.Duration {
	return time.Duration(g.Exp(float64(mean)))
}

// LogNormal returns a log-normal value with the given median and log-space
// standard deviation sigma (natural log). The mean is median*exp(sigma²/2).
func (g *Rand) LogNormal(median, sigma float64) float64 {
	return median * math.Exp(sigma*g.r.NormFloat64())
}

// BoundedPareto returns a Pareto value with scale xm (minimum) and shape
// alpha truncated to [xm, max] by inverse-CDF sampling of the bounded
// distribution. Smaller alpha gives heavier tails; the paper's large-file
// regime corresponds to alpha near 1.
func (g *Rand) BoundedPareto(xm, max, alpha float64) float64 {
	if max <= xm {
		return xm
	}
	u := g.r.Float64()
	ha := math.Pow(xm/max, alpha)
	return xm / math.Pow(1-u*(1-ha), 1/alpha)
}

// Normal returns a normal value with the given mean and standard deviation.
func (g *Rand) Normal(mean, sd float64) float64 {
	return mean + sd*g.r.NormFloat64()
}

// Pick returns an index in [0,len(weights)) chosen with probability
// proportional to the weights. All-zero or empty weights return 0.
func (g *Rand) Pick(weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total == 0 {
		return 0
	}
	x := g.r.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}

// Jitter returns d scaled by a uniform factor in [1-f, 1+f]. It keeps
// periodic behaviours (think-times, daemon offsets) from phase-locking.
func (g *Rand) Jitter(d time.Duration, f float64) time.Duration {
	return time.Duration(float64(d) * g.Range(1-f, 1+f))
}
