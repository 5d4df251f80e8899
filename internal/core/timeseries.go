package core

import (
	"fmt"
	"math"
	"strings"
	"time"

	"spritefs/internal/cluster"
	"spritefs/internal/metrics"
	"spritefs/internal/stats"
)

// TimeseriesOptions configures the registry time-series experiment.
type TimeseriesOptions struct {
	// Hours of simulated time (default 2).
	Hours float64
	// Scale shrinks the community as in TraceOptions.
	Scale float64
	Seed  int64
	// Sample is the sampling interval on the virtual clock (default 10s —
	// the paper's short Table 2 interval, so the long 10-minute windows
	// are exact 60-sample strides of the same series).
	Sample time.Duration
}

// RateRow is cluster-wide application throughput re-derived from the
// sampled series at one averaging width.
type RateRow struct {
	Width     time.Duration
	Intervals int     // non-overlapping windows measured
	AvgKBs    float64 // mean rate over windows
	PeakKBs   float64 // max rate over any window
}

// TimeseriesResult is the Table 2 burstiness contrast, recomputed from one
// run's metric time series instead of from trace records: the same
// cumulative byte counters, differenced at 10-second and 10-minute widths.
type TimeseriesResult struct {
	Hours   float64
	Sample  time.Duration
	Short   RateRow // width = Sample
	Long    RateRow // width = 10 minutes (Table 2's long interval)
	Sampler *metrics.Sampler
}

// tsFamilies are the cumulative counters whose per-sample sum is "bytes
// presented by applications": cache reads and writes plus the uncacheable
// pass-through traffic — the Table 5 numerator, sampled over time.
var tsFamilies = map[string]bool{
	"spritefs_cache_read_bytes_total":          true,
	"spritefs_cache_write_bytes_total":         true,
	"spritefs_client_shared_read_bytes_total":  true,
	"spritefs_client_shared_write_bytes_total": true,
	"spritefs_client_dir_read_bytes_total":     true,
}

// RunTimeseries runs the community once with the registry sampler on and
// re-derives the paper's Table 2 contrast from the stored series: averaged
// over 10-minute windows the cluster looks placid, while the same series
// differenced at 10 seconds exposes the bursts — the paper's point that
// interval width hides or reveals burstiness. One run, one store, two
// projections.
func RunTimeseries(opts TimeseriesOptions) *TimeseriesResult {
	hours := opts.Hours
	if hours <= 0 {
		hours = 2
	}
	sample := opts.Sample
	if sample <= 0 {
		sample = 10 * time.Second
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 424242
	}
	// The counter study's community, so the sampled series carries the
	// traffic the Section 5 tables measure.
	p := scaleParams(CounterParams(seed), opts.Scale)

	dur := time.Duration(hours * float64(time.Hour))
	cfg := cluster.DefaultConfig(p)
	cfg.CollectTrace = false
	cfg.SamplePeriod = sample
	cfg.MetricsMatch = func(name string) bool { return tsFamilies[name] }
	cl := cluster.New(cfg)
	cl.Run(dur)

	res := &TimeseriesResult{Hours: hours, Sample: sample, Sampler: cl.MetricSampler}
	total := totalSeries(cl.MetricSampler)
	res.Short = rates(total, sample, 1)
	stride := int(10 * time.Minute / sample)
	if stride < 1 {
		stride = 1
	}
	res.Long = rates(total, sample, stride)
	return res
}

// totalSeries sums the sampled cumulative counters row-wise into one
// cluster-wide series. Cache families register a scope label ("all" plus
// the "migrated" subset); only scope="all" columns count, so migrated
// traffic is not double-counted.
func totalSeries(s *metrics.Sampler) []float64 {
	var total []float64
	for _, ser := range s.All() {
		if strings.Contains(ser.Labels, `scope="migrated"`) {
			continue
		}
		if total == nil {
			total = make([]float64, len(ser.Values))
		}
		for i, v := range ser.Values {
			if !math.IsNaN(v) {
				total[i] += v
			}
		}
	}
	return total
}

// rates differences the cumulative series at non-overlapping windows of
// stride samples and returns throughput statistics in Kbytes/second.
func rates(total []float64, sample time.Duration, stride int) RateRow {
	row := RateRow{Width: time.Duration(stride) * sample}
	secs := row.Width.Seconds()
	var w stats.Welford
	for i := stride; i < len(total); i += stride {
		w.Add((total[i] - total[i-stride]) / 1024 / secs)
	}
	row.Intervals = int(w.N())
	row.AvgKBs = w.Mean()
	row.PeakKBs = w.Max()
	return row
}

// TimeseriesTables renders the contrast next to the paper's Table 2
// framing (long intervals average away the bursts short ones expose).
func TimeseriesTables(r *TimeseriesResult) string {
	t := stats.NewTable(
		fmt.Sprintf("Table 2 contrast from one sampled series (%.1fh run, %v samples)",
			r.Hours, r.Sample),
		"interval", "windows", "avg KB/s", "peak KB/s")
	add := func(row RateRow) {
		t.AddRow(row.Width.String(),
			fmt.Sprintf("%d", row.Intervals),
			fmt.Sprintf("%.1f", row.AvgKBs),
			fmt.Sprintf("%.1f", row.PeakKBs))
	}
	add(r.Long)
	add(r.Short)
	var b strings.Builder
	b.WriteString(t.String())
	if r.Long.PeakKBs > 0 {
		fmt.Fprintf(&b, "\npeak %v rate is %.1fx the peak %v rate "+
			"(the paper's burstiness point: long intervals hide what short ones expose)\n",
			r.Short.Width, r.Short.PeakKBs/r.Long.PeakKBs, r.Long.Width)
	}
	return b.String()
}
