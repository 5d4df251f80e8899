package replay

import (
	"strings"
	"testing"
	"time"

	"spritefs/internal/trace"
)

// dumpAll renders one result's registry in every export format plus its
// sampled series, concatenated — the byte string the invariance tests pin.
func dumpAll(t *testing.T, r *Result) string {
	t.Helper()
	var b strings.Builder
	for _, format := range []string{"prom", "tsv", "jsonl"} {
		if err := r.Metrics.Registry().Dump(&b, format); err != nil {
			t.Fatal(err)
		}
	}
	if s := r.Metrics.MetricSampler; s != nil {
		for _, format := range []string{"prom", "tsv", "jsonl"} {
			if err := s.Dump(&b, format); err != nil {
				t.Fatal(err)
			}
		}
	}
	return b.String()
}

// metricsSweepConfigs is the invariance grid with the registry sampler on,
// so the series dumps are exercised too.
func metricsSweepConfigs() []Config {
	cfgs := sweepConfigs()
	for i := range cfgs {
		cfgs[i].SamplePeriod = time.Minute
	}
	return cfgs
}

// TestMetricsDumpDeterminism: the same trace replayed twice under the same
// configuration yields byte-identical registry and series dumps in every
// format — the property that makes metric dumps diffable artifacts.
func TestMetricsDumpDeterminism(t *testing.T) {
	live := capturedTrace(t)
	cfg := replayCfg("determinism")
	cfg.SamplePeriod = time.Minute
	run := func() string {
		res, err := RunSweep(live.recs, []Config{cfg}, 1)
		if err != nil {
			t.Fatal(err)
		}
		return dumpAll(t, res[0])
	}
	a, b := run(), run()
	if a == "" {
		t.Fatal("empty metrics dump")
	}
	if a != b {
		t.Fatal("metric dumps differ across identical runs")
	}
}

// TestMetricsDumpWorkerInvariance extends the sweep acceptance criterion
// from reports to raw metric dumps: every configuration's registry dump
// (and sampled time series) is byte-identical whether one goroutine or
// eight replayed the grid. Each worker owns a hermetic engine and a
// private registry, so scheduling cannot leak into the counters.
func TestMetricsDumpWorkerInvariance(t *testing.T) {
	live := capturedTrace(t)
	cfgs := metricsSweepConfigs()

	serial, err := RunSweep(live.recs, cfgs, 1)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := RunSweep(live.recs, cfgs, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfgs {
		a, b := dumpAll(t, serial[i]), dumpAll(t, parallel[i])
		if a == "" {
			t.Fatalf("config %q: empty metrics dump", cfgs[i].Name)
		}
		if a != b {
			t.Errorf("config %q: metric dumps diverge across worker counts", cfgs[i].Name)
		}
	}
}

// TestSeriesKeepsEveryRow replays the two-hour capture at a one-second
// sampling interval — thousands of rows more than the 4096 a capped
// sampler kept — and requires every row, from the first tick on.
func TestSeriesKeepsEveryRow(t *testing.T) {
	live := capturedTrace(t)
	cfg := replayCfg("every-row")
	cfg.SamplePeriod = time.Second
	cfg.MetricsMatch = func(name string) bool { return name == "spritefs_replay_records_applied_total" }
	res, err := Run(cfg, trace.NewSliceStream(live.recs))
	if err != nil {
		t.Fatal(err)
	}
	ser := res.Metrics.MetricSampler.Get("spritefs_replay_records_applied_total", "")
	if len(ser.Times) <= 4096 {
		t.Fatalf("%d rows over a %v horizon sampled every 1s, want more than 4096", len(ser.Times), res.Horizon)
	}
	for i, at := range ser.Times {
		if want := time.Duration(i+1) * time.Second; at != want {
			t.Fatalf("row %d sampled at %v, want %v: rows were dropped", i, at, want)
		}
	}
}

// TestReportIsRegistryProjection pins the tentpole refactor: the sum-shaped
// report tables must read exactly what the registry sums say, and the
// registry must actually contain the per-client families behind them.
func TestReportIsRegistryProjection(t *testing.T) {
	live := capturedTrace(t)
	res, err := Run(replayCfg("projection"), trace.NewSliceStream(live.recs))
	if err != nil {
		t.Fatal(err)
	}
	reg := res.Metrics.Registry()
	if got := res.Report.Table10.FileOpens; got != reg.SumInt("spritefs_server_file_opens_total") {
		t.Errorf("Table10.FileOpens=%d != registry sum %d",
			got, reg.SumInt("spritefs_server_file_opens_total"))
	}
	if got := res.Report.Table7.TotalBytes; got != reg.SumInt("spritefs_net_bytes_total") {
		t.Errorf("Table7.TotalBytes=%d != registry sum %d",
			got, reg.SumInt("spritefs_net_bytes_total"))
	}
	if reg.SumInt("spritefs_replay_records_applied_total") != res.Stats.Applied {
		t.Errorf("replay stats not registered: applied %d vs %d",
			reg.SumInt("spritefs_replay_records_applied_total"), res.Stats.Applied)
	}
	// Per-client cache families exist for every materialized client.
	for _, f := range reg.Families() {
		if f.Desc.Name == "spritefs_cache_read_bytes_total" {
			if f.Instances() < 2*len(res.Metrics.Clients) { // scope=all + scope=migrated
				t.Errorf("cache family has %d instances for %d clients",
					f.Instances(), len(res.Metrics.Clients))
			}
			return
		}
	}
	t.Error("spritefs_cache_read_bytes_total family missing from registry")
}
