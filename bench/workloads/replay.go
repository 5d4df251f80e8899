package workloads

import (
	"bytes"
	"fmt"
	"time"

	"spritefs/bench/harness"
	"spritefs/internal/cluster"
	"spritefs/internal/replay"
	"spritefs/internal/trace"
)

const (
	// replayTraceHours is how long each captured trace is at RunSeconds.
	replayTraceHours = 1.4
	// sweepWorkers is how many replays of a sweep run at once. Results are
	// byte-identical for any count. One, because the replays are bound by
	// memory: on the 2-vCPU reference host two at once contend for the
	// shared cache, CPU per record rises by up to a third, and the
	// run-to-run range of wall_s doubles (16 % against 8 % over six runs of
	// one seed). What running shards in parallel costs is scale_5k's to show.
	sweepWorkers = 1
)

// replaySweep is the paper's own method, trace-driven cache simulation:
// every captured trace replayed under twelve paced configurations, from a
// cache far smaller than the working set (eviction-heavy) to one larger
// than it, and from a 1 s writeback delay (cleaner-heavy) to 300 s (most
// dirty data deleted before it is written).
type replaySweep struct {
	// encoded[i] is trace i+1 in the binary format, as a file would hold it.
	encoded [][]byte
	// opens[i] is how many file opens the capture's servers counted; every
	// replay of the trace must re-issue exactly that many.
	opens []int64
}

func newReplaySweep() *replaySweep { return &replaySweep{} }

func (*replaySweep) Name() string { return "replay_sweep" }
func (*replaySweep) Why() string {
	return "Trace-driven cache simulation: 8 traces x 12 paced configs (cache 64..4096 pages, writeback 1s..300s). Drives client/fscache/server from records, not the generator; decode on the path."
}

func (*replaySweep) SetupsPerPass() int { return 1 }
func (*replaySweep) FootprintMB() int   { return 384 }
func (r *replaySweep) Discard()         { r.encoded, r.opens = nil, nil }

func sweepConfigs() []replay.Config {
	var cfgs []replay.Config
	for _, pages := range []int{64, 256, 1024, 4096} {
		for _, wb := range []time.Duration{time.Second, 30 * time.Second, 300 * time.Second} {
			cfgs = append(cfgs, replay.Config{
				Name:            fmt.Sprintf("cache=%d,wb=%s", pages, wb),
				FixedCachePages: pages,
				WritebackDelay:  wb,
			})
		}
	}
	return cfgs
}

func (r *replaySweep) Setup(env Env, tr *harness.Tracer) (int, error) {
	r.Discard()
	horizon := time.Duration(env.scaled(replayTraceHours) * float64(time.Hour))
	records := 0
	for n := 1; n <= numTraces; n++ {
		end := tr.Begin("cluster", "capture")
		cl := cluster.New(cluster.DefaultConfig(traceParams(env, n)))
		cl.Run(horizon)
		end()

		end = tr.Begin("trace", "merge")
		merged, err := trace.Collect(trace.Merge(cl.PerServerStreams()...))
		end()
		if err != nil {
			return 0, err
		}
		records += len(merged)
		end = tr.Begin("trace", "encode")
		var buf bytes.Buffer
		w, err := trace.NewWriter(&buf)
		if err != nil {
			return 0, err
		}
		for i := range merged {
			if err := w.Write(&merged[i]); err != nil {
				return 0, err
			}
		}
		err = w.Flush()
		end()
		if err != nil {
			return 0, err
		}
		// Keep exactly the file's bytes: the buffer's spare capacity would
		// make the heap after set-up a step function of the trace length.
		r.encoded = append(r.encoded, bytes.Clone(buf.Bytes()))
		r.opens = append(r.opens, cl.Table10Report().FileOpens)
	}
	// What set-up leaves in memory here is the traces, so the population the
	// heap is divided by is the trace, in thousands of records — not the 40
	// workstations behind each, whose activity (and so the trace's length)
	// moves 8 % from seed to seed.
	return (records + 999) / 1000, nil
}

func (r *replaySweep) Run(env Env, tr *harness.Tracer) (*Pass, error) {
	cfgs := sweepConfigs()
	pass := &Pass{}
	lc := newLayerCounts()
	d := newDigester()
	var records int64

	ph := beginPhase()
	for i, enc := range r.encoded {
		end := tr.Begin("trace", "decode")
		rd, err := trace.NewReader(bytes.NewReader(enc))
		if err != nil {
			return nil, err
		}
		recs, err := trace.Collect(rd)
		end()
		if err != nil {
			return nil, err
		}
		records += int64(len(recs))
		end = tr.Begin("replay", "RunSweep")
		results, err := replay.RunSweep(recs, cfgs, sweepWorkers)
		end()
		if err != nil {
			return nil, err
		}
		// Reading the results has to happen before the next trace's sweep
		// replaces them, but it is the harness's work, not the program's.
		ph.suspend()
		for _, res := range results {
			st := res.Stats
			pass.Attempted += st.Read
			pass.Failed += st.Errors + st.UnknownHandle
			if st.Applied != st.Read-st.Scrubbed-st.Filtered {
				pass.problemf("trace %d %s: applied %d of %d read (%d scrubbed, %d filtered)",
					i+1, res.Config.Name, st.Applied, st.Read, st.Scrubbed, st.Filtered)
			}
			if got := res.Report.Table10.FileOpens; got != r.opens[i] {
				pass.problemf("trace %d %s: replay issued %d file opens, capture had %d", i+1, res.Config.Name, got, r.opens[i])
			}
			reg := res.Metrics.Registry()
			lc.addRegistry(reg, 1, res.End)
			if err := d.addRegistry(reg); err != nil {
				return nil, err
			}
		}
		ph.resume()
	}
	pass.Wall, pass.CPU, pass.Runtime = ph.end()

	pass.Digest = d.sum()
	if p := lc.writebackProblem(); p != "" {
		pass.problemf("%s", p)
	}
	pass.Layer = lc.finish()
	// The sweep's work is the cache operations the records turn into, not
	// the records: over ten seeds the sweep's cost per cache operation
	// stays within 4 % while its cost per record moves 9 %, because one
	// record of a class-project run reads megabytes.
	pass.Work = pass.Layer["fscache.read_ops"] + pass.Layer["fscache.write_ops"]
	pass.Layer["trace.records"] = float64(records)
	if tr != nil {
		pass.Layer["replay.records_per_s"] = pass.Layer["replay.records_applied"] / tr.Total("replay", "RunSweep").Seconds()
		pass.Layer["trace.merge_s"] = tr.Total("trace", "merge").Seconds()
	}
	return pass, nil
}
