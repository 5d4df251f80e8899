// Sweep driver: replay one trace under many configurations in parallel.
//
// The paper's Section 5 methodology was exactly this — hold the trace
// fixed and vary the cache/consistency parameters, so every configuration
// sees the identical reference string. Each configuration gets a hermetic
// engine (its own simulator, network, servers and clients) over the shared
// read-only record slice, so worker scheduling cannot leak between
// replays: the aggregate report is byte-identical for any worker count,
// which TestSweepWorkerCountInvariance pins down.
package replay

import (
	"fmt"
	"sync"
	"time"

	"spritefs/internal/stats"
	"spritefs/internal/trace"
)

// RunSweep replays recs once per configuration, fanning the configurations
// out over the given number of worker goroutines (min 1). Results are
// indexed by configuration — independent of completion order — and any
// replay error is reported with its configuration's name.
func RunSweep(recs []trace.Record, cfgs []Config, workers int) ([]*Result, error) {
	return RunSweepWith(recs, cfgs, workers, nil)
}

// RunSweepWith is RunSweep with a completion hook: onResult (when non-nil)
// is called from the worker goroutine as each configuration finishes, with
// the configuration index and its result. cmd/replay uses it to flush
// completed configurations' metrics if the sweep is interrupted mid-run;
// the hook must be safe for concurrent calls.
func RunSweepWith(recs []trace.Record, cfgs []Config, workers int, onResult func(int, *Result)) ([]*Result, error) {
	if workers < 1 {
		workers = 1
	}
	if workers > len(cfgs) {
		workers = len(cfgs)
	}
	results := make([]*Result, len(cfgs))
	errs := make([]error, len(cfgs))
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				results[i], errs[i] = Run(cfgs[i], trace.NewSliceStream(recs))
				if onResult != nil && errs[i] == nil {
					onResult(i, results[i])
				}
			}
		}()
	}
	for i := range cfgs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("replay %q: %w", cfgs[i].Name, err)
		}
	}
	return results, nil
}

// SweepTable summarizes a sweep one row per configuration: the Section 5
// cache-effectiveness ratios (read misses, miss traffic, writebacks) and
// the Table 10 consistency-action rates, side by side so a parameter's
// effect reads across a single column.
func SweepTable(results []*Result) *stats.Table {
	t := stats.NewTable("Trace replay sweep",
		"config", "records", "opens", "miss%", "traffic%", "wb%", "netMB", "cws%", "recall%")
	for i, r := range results {
		name := r.Config.Name
		if name == "" {
			name = fmt.Sprintf("cfg%d", i)
		}
		t6 := r.Report.Table6
		t10 := r.Report.Table10
		t.AddRow(name,
			fmt.Sprintf("%d", r.Stats.Applied),
			fmt.Sprintf("%d", t10.FileOpens),
			fmt.Sprintf("%.1f", t6.All.ReadMissPct),
			fmt.Sprintf("%.1f", t6.All.ReadMissTrafficPct),
			fmt.Sprintf("%.1f", t6.All.WritebackPct),
			fmt.Sprintf("%.1f", float64(r.Report.Table7.TotalBytes)/(1<<20)),
			fmt.Sprintf("%.2f", t10.CWSPct),
			fmt.Sprintf("%.2f", t10.RecallPct))
	}
	return t
}

// ReplayTable summarizes a single replay's bookkeeping: what the engine
// did with the stream, before the full report tables.
func ReplayTable(r *Result) *stats.Table {
	t := stats.NewTable("Trace replay", "counter", "value")
	row := func(k string, v int64) { t.AddRow(k, fmt.Sprintf("%d", v)) }
	row("records read", r.Stats.Read)
	row("applied", r.Stats.Applied)
	row("filtered", r.Stats.Filtered)
	row("scrubbed", r.Stats.Scrubbed)
	row("unknown handle", r.Stats.UnknownHandle)
	row("errors", r.Stats.Errors)
	row("files bootstrapped", r.Stats.Bootstrapped)
	row("creates", r.Stats.Creates)
	row("migrations", r.Stats.Migrations)
	t.AddRow("trace horizon", fmt.Sprintf("%v", r.Horizon.Round(time.Millisecond)))
	t.AddRow("virtual end", fmt.Sprintf("%v", r.End.Round(time.Millisecond)))
	if !r.Config.Faults.Empty() {
		rec := r.Report.Recovery
		row("server crashes", rec.ServerCrashes)
		row("client crashes", rec.ClientCrashes)
		row("opens lost in crash", rec.OpensLostInCrash)
		row("dirty bytes lost", rec.DirtyBytesLost)
		t.AddRow("max dirty age lost", fmt.Sprintf("%v", rec.MaxDirtyAge.Round(time.Millisecond)))
		row("recoveries", rec.Recoveries)
		row("recovery reopens", rec.RecoveryOpens)
		row("recovery replayed bytes", rec.ReplayedBytes)
		row("recovery retries", rec.RecoveryRetries)
		row("recovery gave up", rec.GaveUp)
		row("max reopen storm", int64(r.Faults.MaxReopenStorm))
		t.AddRow("time to reconsistency", fmt.Sprintf("%v", rec.MaxTimeToReconsistency.Round(time.Millisecond)))
		row("rpcs dropped", rec.DroppedOps)
		row("rpcs stalled", rec.StalledOps)
		t.AddRow("stall time", fmt.Sprintf("%v", rec.StallTime.Round(time.Millisecond)))
	}
	return t
}
