package live

import (
	"sync"
	"sync/atomic"
	"time"

	"spritefs/internal/metrics"
	"spritefs/internal/stats"
)

// Counters is the fleet's observation state. Agents record into it from
// their own goroutines: plain counts are atomics, distributions sit behind
// a mutex. Registry snapshot closures read it too — the live /metrics
// handler runs those on the dispatcher loop, which is just another reader
// goroutine here.
type Counters struct {
	agents   int64 // configured fleet size (constant)
	inflight atomic.Int64
	timeouts atomic.Int64
	retries  atomic.Int64

	requests [NumVerbs]atomic.Int64
	errors   [NumVerbs]atomic.Int64

	mu sync.Mutex
	// wall[v] accumulates real request latencies (nanoseconds) for verb v;
	// hist[v] is the log-bucketed distribution the percentile report reads.
	wall [NumVerbs]stats.Welford
	hist [NumVerbs]*stats.Hist
	// sim accumulates the simulated service time the model charged, for
	// comparing modeled cost against measured wall latency.
	sim stats.Welford
}

// histLo/histHi bound the latency histograms: 1µs to 100s, 20 buckets per
// decade (≈12% quantile resolution).
const (
	histLo = 1e3  // 1µs in ns
	histHi = 1e11 // 100s in ns
)

// NewCounters returns counters for a fleet of the given size.
func NewCounters(agents int) *Counters {
	c := &Counters{agents: int64(agents)}
	for v := range c.hist {
		c.hist[v] = stats.NewHist(histLo, histHi, 20)
	}
	return c
}

// Begin marks a request in flight.
func (c *Counters) Begin() { c.inflight.Add(1) }

// Done records one finished request: its verb, real wall latency, the
// simulated service time from the reply, and whether it failed.
func (c *Counters) Done(v Verb, wall time.Duration, simLat time.Duration, failed bool) {
	c.inflight.Add(-1)
	c.requests[v].Add(1)
	if failed {
		c.errors[v].Add(1)
		return
	}
	c.mu.Lock()
	c.wall[v].Add(float64(wall))
	c.hist[v].Add1(float64(wall))
	c.sim.Add(float64(simLat))
	c.mu.Unlock()
}

// Timeout counts a deadline expiry (also recorded as an error by Done).
func (c *Counters) Timeout() { c.timeouts.Add(1) }

// Retry counts one backoff retry attempt.
func (c *Counters) Retry() { c.retries.Add(1) }

// Requests returns the total completed request count.
func (c *Counters) Requests() int64 {
	var n int64
	for v := range c.requests {
		n += c.requests[v].Load()
	}
	return n
}

// Errors returns the total failed request count.
func (c *Counters) Errors() int64 {
	var n int64
	for v := range c.errors {
		n += c.errors[v].Load()
	}
	return n
}

// wallSnapshot returns copies of verb v's accumulators, taken under the
// lock so Welford/Hist internals are consistent.
func (c *Counters) wallSnapshot(v Verb) (stats.Welford, *stats.Hist) {
	c.mu.Lock()
	defer c.mu.Unlock()
	w := c.wall[v]
	h := stats.NewHist(histLo, histHi, 20)
	h.Merge(c.hist[v])
	return w, h
}

// RegisterMetrics registers the spritefs_live_ families into r. The value
// closures only touch atomics and the mutex-guarded accumulators, so the
// registry may be snapshotted from any goroutine that owns the registry
// itself (the live exporter snapshots on the dispatcher loop, where the
// cluster's own closures are also safe).
func (c *Counters) RegisterMetrics(r *metrics.Registry) {
	r.IntVar(metrics.Desc{
		Name: "spritefs_live_agents",
		Unit: "agents", Help: "Configured client-agent fleet size.", Kind: metrics.Gauge,
	}, nil, &c.agents)
	r.Int(metrics.Desc{
		Name: "spritefs_live_inflight",
		Unit: "requests", Help: "Requests currently in flight across the fleet.", Kind: metrics.Gauge,
	}, nil, func() int64 { return c.inflight.Load() })
	r.Int(metrics.Desc{
		Name: "spritefs_live_timeouts_total",
		Unit: "requests", Help: "Requests abandoned at their deadline.", Kind: metrics.Counter,
	}, nil, func() int64 { return c.timeouts.Load() })
	r.Int(metrics.Desc{
		Name: "spritefs_live_retries_total",
		Unit: "requests", Help: "Backoff retries issued after retryable failures.", Kind: metrics.Counter,
	}, nil, func() int64 { return c.retries.Load() })
	for v := Verb(0); v < NumVerbs; v++ {
		v := v
		ls := metrics.Labels{metrics.L("verb", v.String())}
		r.Int(metrics.Desc{
			Name: "spritefs_live_requests_total",
			Unit: "requests", Help: "Completed live requests by verb.", Kind: metrics.Counter,
		}, ls, func() int64 { return c.requests[v].Load() })
		r.Int(metrics.Desc{
			Name: "spritefs_live_errors_total",
			Unit: "requests", Help: "Failed live requests by verb.", Kind: metrics.Counter,
		}, ls, func() int64 { return c.errors[v].Load() })
		r.HistSeconds(metrics.Desc{
			Name: "spritefs_live_request_wall_seconds",
			Unit: "seconds", Help: "Real (wall-clock) request latency by verb.",
		}, ls, func() stats.Welford {
			c.mu.Lock()
			defer c.mu.Unlock()
			return c.wall[v]
		})
	}
	r.HistSeconds(metrics.Desc{
		Name: "spritefs_live_request_sim_seconds",
		Unit: "seconds", Help: "Simulated service time charged per successful request.",
	}, nil, func() stats.Welford {
		c.mu.Lock()
		defer c.mu.Unlock()
		return c.sim
	})
}
