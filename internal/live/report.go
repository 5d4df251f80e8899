package live

import (
	"fmt"
	"time"

	"spritefs/internal/stats"
)

// Report summarizes a finished soak: per-verb counts, error counts, and
// wall-latency mean/p50/p95/p99, plus aggregate throughput.
type Report struct {
	Elapsed  time.Duration
	Requests int64
	Errors   int64
	Timeouts int64
	Retries  int64
	// PerVerb rows in verb order; verbs with no traffic are omitted.
	PerVerb []VerbStats
}

// VerbStats is one verb's latency summary. Latencies are wall-clock.
type VerbStats struct {
	Verb   Verb
	Count  int64
	Errors int64
	Mean   time.Duration
	P50    time.Duration
	P95    time.Duration
	P99    time.Duration
}

// Throughput returns completed requests per second over the elapsed window.
func (r *Report) Throughput() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Requests) / r.Elapsed.Seconds()
}

// BuildReport snapshots the counters after elapsed wall time of load.
func BuildReport(c *Counters, elapsed time.Duration) *Report {
	r := &Report{
		Elapsed:  elapsed,
		Requests: c.Requests(),
		Errors:   c.Errors(),
		Timeouts: c.timeouts.Load(),
		Retries:  c.retries.Load(),
	}
	for v := Verb(0); v < NumVerbs; v++ {
		n := c.requests[v].Load()
		if n == 0 {
			continue
		}
		w, h := c.wallSnapshot(v)
		r.PerVerb = append(r.PerVerb, VerbStats{
			Verb:   v,
			Count:  n,
			Errors: c.errors[v].Load(),
			Mean:   time.Duration(w.Mean()),
			P50:    time.Duration(h.Quantile(0.50)),
			P95:    time.Duration(h.Quantile(0.95)),
			P99:    time.Duration(h.Quantile(0.99)),
		})
	}
	return r
}

// fmtLat renders a latency with sub-millisecond resolution kept readable.
func fmtLat(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.1fµs", float64(d)/float64(time.Microsecond))
	}
}

// Table renders the report as a paper-style text table.
func (r *Report) Table() *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Live soak: %d requests in %.1fs (%.1f req/s, %d errors, %d timeouts, %d retries)",
			r.Requests, r.Elapsed.Seconds(), r.Throughput(), r.Errors, r.Timeouts, r.Retries),
		"verb", "count", "errors", "mean", "p50", "p95", "p99")
	for _, v := range r.PerVerb {
		t.AddRow(v.Verb.String(),
			fmt.Sprintf("%d", v.Count),
			fmt.Sprintf("%d", v.Errors),
			fmtLat(v.Mean), fmtLat(v.P50), fmtLat(v.P95), fmtLat(v.P99))
	}
	return t
}
