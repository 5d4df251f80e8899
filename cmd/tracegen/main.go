// Command tracegen generates the synthetic 24-hour traces: it runs the
// full cluster simulation for one of the eight trace configurations and
// writes one binary trace file per file server, exactly as the paper's
// instrumented kernels logged to per-server trace files.
//
// Usage:
//
//	tracegen -trace 1 -hours 24 -out /tmp/traces
//
// produces /tmp/traces/trace1.srv0 ... trace1.srv3, which cmd/traceanalyze
// merges and analyzes.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"time"

	"spritefs/internal/cluster"
	"spritefs/internal/trace"
	"spritefs/internal/workload"
)

func main() {
	var (
		traceNum = flag.Int("trace", 1, "trace configuration 1-8")
		hours    = flag.Float64("hours", 24, "simulated hours")
		out      = flag.String("out", ".", "output directory")
		servers  = flag.Int("servers", 4, "number of file servers")
	)
	flag.Parse()
	if err := run(*traceNum, *hours, *out, *servers, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func run(traceNum int, hours float64, out string, servers int, stdout io.Writer) error {
	if traceNum < 1 || traceNum > 8 {
		return fmt.Errorf("trace number %d out of range 1-8", traceNum)
	}
	// NaN passes a "<= 0" check, and neither NaN nor +Inf converts to a
	// horizon the cluster can run to.
	if !(hours > 0) || math.IsInf(hours, 1) {
		return fmt.Errorf("-hours must be a positive finite number (got %g)", hours)
	}
	if servers < 1 {
		return fmt.Errorf("-servers must be at least 1 (got %d)", servers)
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}

	p := workload.TraceParams(traceNum)
	cfg := cluster.DefaultConfig(p)
	cfg.NumServers = servers
	cfg.SamplePeriod = 0

	// One writer per server, fed through the trace sink.
	files := make([]*os.File, servers)
	writers := make([]*trace.Writer, servers)
	for i := range writers {
		path := filepath.Join(out, fmt.Sprintf("trace%d.srv%d", traceNum, i))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		defer f.Close()
		w, err := trace.NewWriter(f)
		if err != nil {
			return err
		}
		files[i], writers[i] = f, w
	}
	cfg.TraceSink = func(rec trace.Record) {
		idx := int(rec.Server)
		if idx < 0 || idx >= servers {
			idx = 0
		}
		if err := writers[idx].Write(&rec); err != nil {
			fmt.Fprintln(os.Stderr, "tracegen: write:", err)
			os.Exit(1)
		}
	}

	c := cluster.New(cfg)
	start := time.Now()
	c.Run(time.Duration(hours * float64(time.Hour)))

	var total int64
	for i, w := range writers {
		if err := w.Flush(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "server %d: %d records -> %s\n", i, w.Count(), files[i].Name())
		total += w.Count()
	}
	fmt.Fprintf(stdout, "trace %d: %g simulated hours, %d records, %.1fs wall time\n",
		traceNum, hours, total, time.Since(start).Seconds())
	return nil
}
