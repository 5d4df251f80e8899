// Command replay re-executes captured traces against the simulated
// cluster — the paper's Section 5 methodology as a tool: hold the
// reference string fixed, vary the cache and consistency parameters, and
// read the effect straight off the counter tables.
//
// Replay one trace (all per-server files merged) at recorded speed:
//
//	replay -trace 'trace1.srv0,trace1.srv1,trace1.srv2,trace1.srv3'
//
// Replay as fast as possible and print the full counter tables:
//
//	replay -trace trace1.srv0 -speed 0 -report tables
//
// Sweep cache sizes over 8 worker goroutines, TSV aggregate report:
//
//	replay -trace trace1.srv0 -sweep cache=512,2048,8192 -workers 8 -report tsv
//
// Replay only some workstations' records — their cache and wire load, with
// no consistency action against the clients left out:
//
//	replay -trace trace1.srv0 -clients 0,3,6
//
// Replay under a fault schedule — crash server 0 an hour in, with the
// recovery counters reported in the summary:
//
//	replay -trace trace1.srv0 -faults 'server-crash:0@1h/30s'
//
// Sweep axes: cache=<pages,...>, wb=<durations,...> (writeback delay),
// mode=<sprite|poll,...> (consistency), poll=<durations,...> (validity
// window, implies mode poll). Trace files may be binary or text; the
// format is auto-detected per file.
package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"spritefs/internal/client"
	"spritefs/internal/core"
	"spritefs/internal/faults"
	"spritefs/internal/prof"
	"spritefs/internal/replay"
	"spritefs/internal/shutdown"
	"spritefs/internal/trace"
	"spritefs/internal/traceio"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "replay:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	var (
		tracePaths = fs.String("trace", "", "comma-separated trace files (binary or text; merged in time order)")
		importFmt  = fs.String("import", "", "treat the trace files as foreign dumps: csv | strace (see cmd/tracefmt)")
		mapSpec    = fs.String("map", "", "column mapping for -import csv, e.g. 'time=0,op=2,path=3,unit=ms'")
		speed      = fs.Float64("speed", 1, "time scale: 2 = twice recorded speed, 0 = as fast as possible")
		sweep      = fs.String("sweep", "", "sweep axis, e.g. cache=512,2048,8192 | wb=5s,30s | mode=sprite,poll | poll=5s,30s")
		workers    = fs.Int("workers", runtime.NumCPU(), "worker goroutines for -sweep")
		report     = fs.String("report", "summary", "report style: summary | tables | tsv")
		servers    = fs.Int("servers", 4, "number of file servers")
		cache      = fs.Int("cache", 0, "fixed client cache size in 4 KB pages (0 = dynamic)")
		mode       = fs.String("mode", "sprite", "consistency mode: sprite | poll")
		poll       = fs.Duration("poll", 3*time.Second, "validity window for -mode poll (0 = the client's 60s default)")
		wb         = fs.Duration("wb", 0, "writeback delay override (0 = the 30s default)")
		prefetch   = fs.Int("prefetch", 0, "sequential prefetch blocks")
		clientsCSV = fs.String("clients", "", "replay only these client ids (comma-separated)")
		kindsCSV   = fs.String("kinds", "", "replay only these record kinds (comma-separated names)")
		faultsSpec = fs.String("faults", "", "fault schedule, e.g. 'server-crash:0@10m/30s,drop@0s/1h/500ms/50'")
		metricsOut = fs.String("metrics-out", "", "write the final metric registry dump to this file ('-' = stdout); sweeps append .<config> per configuration")
		metricsFmt = fs.String("metrics-format", "prom", "registry dump format: prom | tsv | jsonl")
		metricsTS  = fs.Duration("metrics-sample", 0, "sample the registry as time series at this virtual-clock interval: -report tables computes Table 4 from the samples, and -metrics-out writes them as <metrics-out>.series (every row is kept, so memory grows with horizon ÷ interval)")
		cpuProf    = fs.String("cpuprofile", "", "write a pprof CPU profile of the replay to this file")
		memProf    = fs.String("memprofile", "", "write a pprof heap profile (taken after the replay) to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if set["metrics-sample"] && !set["metrics-out"] && *report != "tables" {
		return fmt.Errorf("-metrics-sample feeds <metrics-out>.series and -report tables' Table 4; it needs -metrics-out or -report tables")
	}
	// The cluster samples only at a positive interval: 0s or -5s would
	// silently write no .series file.
	if set["metrics-sample"] && *metricsTS <= 0 {
		return fmt.Errorf("-metrics-sample must be positive (got %v)", *metricsTS)
	}
	if set["metrics-format"] && !set["metrics-out"] {
		return fmt.Errorf("-metrics-format without -metrics-out writes nothing; add -metrics-out")
	}
	switch *metricsFmt {
	case "prom", "tsv", "jsonl":
	default:
		return fmt.Errorf("unknown -metrics-format %q (want prom, tsv or jsonl)", *metricsFmt)
	}
	switch *report {
	case "summary", "tables", "tsv":
	default:
		return fmt.Errorf("unknown -report style %q (want summary, tables or tsv)", *report)
	}
	if set["map"] && *importFmt != "csv" {
		return fmt.Errorf("-map only applies to -import csv")
	}
	if set["workers"] && *sweep == "" {
		return fmt.Errorf("-workers only applies to -sweep runs")
	}
	if *workers < 1 {
		return fmt.Errorf("-workers must be at least 1 (got %d)", *workers)
	}
	if *servers < 1 {
		return fmt.Errorf("-servers must be at least 1 (got %d)", *servers)
	}
	// Zero means what each flag's help says it means; a negative value
	// means nothing, and the layers below would quietly run a default.
	for _, f := range []struct {
		name     string
		negative bool
		got      any
	}{
		{"cache", *cache < 0, *cache},
		{"wb", *wb < 0, *wb},
		{"prefetch", *prefetch < 0, *prefetch},
		{"speed", *speed < 0, *speed},
		{"poll", *poll < 0, *poll},
	} {
		if f.negative {
			return fmt.Errorf("-%s must be at least 0 (got %v)", f.name, f.got)
		}
	}
	// NaN and +Inf pass the check above and would replay as fast as
	// possible without saying so.
	if math.IsNaN(*speed) || math.IsInf(*speed, 0) {
		return fmt.Errorf("-speed must be a finite number (got %v)", *speed)
	}
	if set["poll"] && *mode != "poll" && !strings.Contains(*sweep, "poll") && !strings.Contains(*sweep, "mode") {
		return fmt.Errorf("-poll only applies with -mode poll (or a poll/mode sweep axis)")
	}
	paths := splitCSV(*tracePaths)
	paths = append(paths, fs.Args()...)
	if len(paths) == 0 {
		return fmt.Errorf("no trace files (use -trace)")
	}

	base := replay.Config{
		Name:            "base",
		NumServers:      *servers,
		FixedCachePages: *cache,
		WritebackDelay:  *wb,
		PrefetchBlocks:  *prefetch,
		PollInterval:    *poll,
	}
	switch *mode {
	case "sprite":
		base.Consistency = client.ConsistencySprite
	case "poll":
		base.Consistency = client.ConsistencyPoll
	default:
		return fmt.Errorf("unknown consistency mode %q", *mode)
	}
	if *speed <= 0 {
		base.AsFastAsPossible = true
	} else {
		base.Speed = *speed
	}
	keep, err := buildFilter(*clientsCSV, *kindsCSV)
	if err != nil {
		return err
	}
	base.Keep = keep
	base.SamplePeriod = *metricsTS
	if *faultsSpec != "" {
		sched, err := faults.Parse(*faultsSpec)
		if err != nil {
			return fmt.Errorf("-faults: %w", err)
		}
		base.Faults = sched
	}

	// Profile files are created before the replay starts so a bad path
	// fails in milliseconds, not after the full run.
	pp, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		return err
	}
	defer func() {
		if serr := pp.Stop(); err == nil {
			err = serr
		}
	}()

	// SIGINT/SIGTERM mid-run: flush the profiles and dump metrics for
	// whatever configurations have completed instead of losing everything.
	var partial partialResults
	guard := shutdown.NewGuard()
	defer guard.Close()
	guard.Add(func() { pp.Stop() })
	if *metricsOut != "" {
		outPath, outFmt := *metricsOut, *metricsFmt
		guard.Add(func() {
			if rs := partial.snapshot(); len(rs) > 0 {
				fmt.Fprintf(os.Stderr, "replay: interrupted; flushing metrics for %d completed configuration(s)\n", len(rs))
				if err := writeMetrics(rs, outPath, outFmt, os.Stderr); err != nil {
					fmt.Fprintln(os.Stderr, "replay:", err)
				}
			}
		})
	}

	src := traceio.Source{Format: *importFmt, Map: *mapSpec, Options: traceio.Options{NumServers: *servers}}
	stream, closeAll, err := src.Open(paths, os.Stderr)
	if err != nil {
		return err
	}
	defer closeAll()

	if *sweep == "" {
		res, err := replay.Run(base, stream)
		if err != nil {
			return err
		}
		if err := writeMetrics([]*replay.Result{res}, *metricsOut, *metricsFmt, out); err != nil {
			return err
		}
		return printResults(out, []*replay.Result{res}, *report)
	}

	// Sweeps replay the merged trace many times, so it must be resident.
	recs, err := trace.Collect(stream)
	if err != nil {
		return err
	}
	cfgs, err := sweepConfigs(base, *sweep)
	if err != nil {
		return err
	}
	results, err := replay.RunSweepWith(recs, cfgs, *workers, func(_ int, r *replay.Result) {
		partial.add(r)
	})
	if err != nil {
		return err
	}
	if err := writeMetrics(results, *metricsOut, *metricsFmt, out); err != nil {
		return err
	}
	return printResults(out, results, *report)
}

// partialResults collects completed sweep results so the signal handler
// can flush their metrics on an interrupted run.
type partialResults struct {
	mu sync.Mutex
	rs []*replay.Result
}

func (p *partialResults) add(r *replay.Result) {
	p.mu.Lock()
	p.rs = append(p.rs, r)
	p.mu.Unlock()
}

func (p *partialResults) snapshot() []*replay.Result {
	p.mu.Lock()
	defer p.mu.Unlock()
	return append([]*replay.Result(nil), p.rs...)
}

// writeMetrics dumps each result's metric registry (and sampled series,
// when -metrics-sample was set) in the chosen format. A single replay
// writes to path as-is; sweeps append the configuration name so every
// configuration's dump lands in its own file.
func writeMetrics(results []*replay.Result, path, format string, stdout io.Writer) error {
	if path == "" {
		return nil
	}
	for _, r := range results {
		target := path
		if len(results) > 1 {
			target = path + "." + sanitizeName(r.Config.Name)
		}
		dump := func(p string, write func(io.Writer) error) error {
			if p == "-" {
				return write(stdout)
			}
			f, err := os.Create(p)
			if err != nil {
				return err
			}
			if err := write(f); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		}
		reg := r.Metrics.Registry()
		if err := dump(target, func(w io.Writer) error { return reg.Dump(w, format) }); err != nil {
			return err
		}
		if s := r.Metrics.MetricSampler; s != nil {
			st := target + ".series"
			if target == "-" {
				st = "-"
			}
			if err := dump(st, func(w io.Writer) error { return s.Dump(w, format) }); err != nil {
				return err
			}
		}
	}
	return nil
}

// sanitizeName makes a sweep configuration name filesystem-safe.
func sanitizeName(name string) string {
	if name == "" {
		return "cfg"
	}
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.', r == '=':
			return r
		default:
			return '_'
		}
	}, name)
}

func splitCSV(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func buildFilter(clientsCSV, kindsCSV string) (func(*trace.Record) bool, error) {
	var filters []func(*trace.Record) bool
	if ids := splitCSV(clientsCSV); len(ids) > 0 {
		parsed := make([]int32, 0, len(ids))
		for _, s := range ids {
			n, err := strconv.ParseInt(s, 10, 32)
			if err != nil {
				return nil, fmt.Errorf("bad client id %q", s)
			}
			// The engine scrubs records with a negative client before
			// any filter runs, so such an id would match nothing.
			if n < 0 {
				return nil, fmt.Errorf("-clients must be at least 0 (got %d)", n)
			}
			parsed = append(parsed, int32(n))
		}
		filters = append(filters, replay.KeepClients(parsed...))
	}
	if names := splitCSV(kindsCSV); len(names) > 0 {
		kinds := make([]trace.Kind, 0, len(names))
		for _, s := range names {
			k, ok := trace.ParseKind(s)
			if !ok {
				return nil, fmt.Errorf("unknown record kind %q", s)
			}
			kinds = append(kinds, k)
		}
		filters = append(filters, replay.KeepKinds(kinds...))
	}
	switch len(filters) {
	case 0:
		return nil, nil
	case 1:
		return filters[0], nil
	default:
		return replay.And(filters...), nil
	}
}

// sweepConfigs expands one "axis=v1,v2,..." spec into a configuration per
// value, each derived from the base flags.
func sweepConfigs(base replay.Config, spec string) ([]replay.Config, error) {
	axis, list, ok := strings.Cut(spec, "=")
	if !ok {
		return nil, fmt.Errorf("bad sweep spec %q (want axis=v1,v2,...)", spec)
	}
	values := splitCSV(list)
	if len(values) == 0 {
		return nil, fmt.Errorf("sweep spec %q has no values", spec)
	}
	cfgs := make([]replay.Config, 0, len(values))
	for _, v := range values {
		c := base
		switch axis {
		case "cache":
			n, err := strconv.Atoi(v)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("bad cache pages %q", v)
			}
			c.FixedCachePages = n
			c.Name = "cache=" + v
		case "wb":
			d, err := time.ParseDuration(v)
			if err != nil || d <= 0 {
				return nil, fmt.Errorf("bad writeback delay %q", v)
			}
			c.WritebackDelay = d
			c.Name = "wb=" + v
		case "mode":
			switch v {
			case "sprite":
				c.Consistency = client.ConsistencySprite
			case "poll":
				c.Consistency = client.ConsistencyPoll
			default:
				return nil, fmt.Errorf("unknown consistency mode %q", v)
			}
			c.Name = "mode=" + v
		case "poll":
			d, err := time.ParseDuration(v)
			if err != nil || d <= 0 {
				return nil, fmt.Errorf("bad poll interval %q", v)
			}
			c.Consistency = client.ConsistencyPoll
			c.PollInterval = d
			c.Name = "poll=" + v
		default:
			return nil, fmt.Errorf("unknown sweep axis %q (cache, wb, mode, poll)", axis)
		}
		cfgs = append(cfgs, c)
	}
	return cfgs, nil
}

func printResults(out io.Writer, results []*replay.Result, style string) error {
	switch style {
	case "tsv":
		_, err := io.WriteString(out, replay.SweepTable(results).TSV())
		return err
	case "summary":
		if len(results) == 1 {
			if _, err := fmt.Fprintln(out, replay.ReplayTable(results[0])); err != nil {
				return err
			}
		}
		_, err := fmt.Fprintln(out, replay.SweepTable(results))
		return err
	case "tables":
		for _, r := range results {
			name := r.Config.Name
			if _, err := fmt.Fprintf(out, "=== %s ===\n%s\n", name, replay.ReplayTable(r)); err != nil {
				return err
			}
			cr := &core.CounterResult{Report: r.Report, NetUtilization: netUtilization(r)}
			if _, err := fmt.Fprintf(out, "%s\n%s\n", core.CounterTables(cr), core.CounterDetail(cr)); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("unknown report style %q (summary, tables, tsv)", style)
	}
}

// netUtilization is the wire's busy share of the replay's virtual run,
// drain included.
func netUtilization(r *replay.Result) float64 {
	if r.End <= 0 {
		return 0
	}
	return float64(r.Metrics.Registry().SumSeconds("spritefs_net_busy_seconds")) / float64(r.End)
}
