// Command experiments regenerates every table and figure of the paper's
// evaluation and prints them side by side with the published values. It is
// the tool behind EXPERIMENTS.md.
//
// Usage:
//
//	experiments -exp section4 -traces 1,2 -hours 4 -scale 0.5
//	experiments -exp section5 -days 1 -scale 0.5
//	experiments -exp claims -hours 2                # the paper's arguments, each with a verdict
//	experiments -exp all -hours 24 -days 14        # full-scale, slow
//	experiments -exp scale -clients 1000 -shards 1,2,4,8 -hours 0.25
//	experiments -exp scale -clients 10000 -shards 8 -sites 1,2,4,8 -hours 0.1
//	experiments -exp scale -clients 1000000 -shards 200 -sites 20 -lean -hours 0.02
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"spritefs/internal/core"
	"spritefs/internal/prof"
	"spritefs/internal/shutdown"
)

// flagScope says which experiments each flag applies to; validateFlags
// rejects explicitly-set flags the chosen experiment would silently
// ignore. Flags absent from the map (exp, seed, cpuprofile,
// memprofile) apply everywhere.
var flagScope = map[string][]string{
	"traces":  {"all", "section4"},
	"hours":   {"all", "section4", "claims", "scale"},
	"days":    {"all", "section5"},
	"scale":   {"all", "section4", "section5", "claims"},
	"cdfdir":  {"all", "section4"},
	"shards":  {"scale"},
	"clients": {"scale"},
	"workers": {"scale"},
	"sites":   {"scale"},
	"lean":    {"scale"},
}

// nonNegative are the numeric flags whose negative values the studies would
// otherwise silently replace by a default (0 stays "use the default" where
// the help text says so).
var nonNegative = []string{"clients", "hours", "days", "scale", "workers"}

// finite are the horizon and scale flags: NaN passes every range check
// and ±Inf would become a nonsense horizon or community.
var finite = []string{"hours", "days", "scale"}

var validExps = []string{"all", "section4", "section5", "claims", "scale"}

// validateFlags fails fast on unknown -exp names, on flags the experiment
// would ignore and on out-of-range numbers instead of silently running the
// default. num holds the values of the nonNegative flags.
func validateFlags(exp string, set map[string]bool, num map[string]float64) error {
	known := false
	for _, e := range validExps {
		if exp == e {
			known = true
			break
		}
	}
	if !known {
		return fmt.Errorf("unknown experiment %q (want one of %s)", exp, strings.Join(validExps, ", "))
	}
	for name := range set {
		scope, ok := flagScope[name]
		if !ok {
			continue
		}
		applies := false
		for _, e := range scope {
			if e == exp {
				applies = true
				break
			}
		}
		if !applies {
			return fmt.Errorf("-%s does not apply to -exp %s (valid for: %s)",
				name, exp, strings.Join(scope, ", "))
		}
	}
	for _, name := range finite {
		if math.IsNaN(num[name]) || math.IsInf(num[name], 0) {
			return fmt.Errorf("-%s %v is not a finite number", name, num[name])
		}
	}
	for _, name := range nonNegative {
		if num[name] < 0 {
			return fmt.Errorf("-%s %v is negative", name, num[name])
		}
	}
	if num["scale"] > 1 {
		return fmt.Errorf("-scale %v is above 1: 1 is the full 40-client cluster and the largest scale", num["scale"])
	}
	return nil
}

// usageError marks a command-line mistake; main exits 2 for it and 1 for
// an error of the run itself.
type usageError struct{ error }

func main() {
	err := run(os.Args[1:], os.Stdout, os.Stderr)
	if err == nil {
		return
	}
	fmt.Fprintln(os.Stderr, "experiments:", err)
	if errors.As(err, &usageError{}) {
		os.Exit(2)
	}
	os.Exit(1)
}

func run(args []string, stdout, stderr io.Writer) (err error) {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		exp     = fs.String("exp", "all", "experiment: all (section4 and section5), section4, section5, claims, scale")
		traces  = fs.String("traces", "1,2,3,4,5,6,7,8", "comma-separated trace numbers for section4")
		hours   = fs.Float64("hours", 24, "simulated hours per trace, or per point of -exp claims")
		days    = fs.Float64("days", 14, "simulated days for the counter study")
		scale   = fs.Float64("scale", 1.0, "community scale factor: 1.0 is the full 40-client cluster and the largest value")
		seed    = fs.Int64("seed", 0, "seed: for section4 an offset added to each trace's seed; for every other study the seed itself (0 = the study's default)")
		cdfDir  = fs.String("cdfdir", "", "write the Figure 1-4 CDF series as TSV files into this directory")
		shards  = fs.String("shards", "1,2,4,8", "comma-separated shard (Ethernet segment) counts for -exp scale")
		sites   = fs.String("sites", "1", "comma-separated site counts for -exp scale, run against every shard count (each must divide it)")
		clients = fs.Int("clients", 0, "total community size for -exp scale (default 1000)")
		workers = fs.Int("workers", 0, "for -exp scale: executor goroutines for multi-shard rows (0 = GOMAXPROCS; 1 runs one; output is identical at every count)")
		lean    = fs.Bool("lean", false, "for -exp scale: skip per-client metric instances (needed for million-client runs)")
		cpuProf = fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
		memProf = fs.String("memprofile", "", "write a pprof heap profile (taken after the run) to this file")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil // -h: usage is printed, nothing ran
		}
		return usageError{err}
	}

	setFlags := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { setFlags[f.Name] = true })
	num := map[string]float64{
		"clients": float64(*clients), "workers": float64(*workers),
		"hours": *hours, "days": *days, "scale": *scale,
	}
	if err := validateFlags(*exp, setFlags, num); err != nil {
		fs.Usage()
		return usageError{err}
	}
	traceNums, err := parseCounts("traces", *traces, 8)
	if err != nil {
		return usageError{err}
	}
	shardCounts, err := parseCounts("shards", *shards, 0)
	if err != nil {
		return usageError{err}
	}
	siteCounts, err := parseCounts("sites", *sites, 0)
	if err != nil {
		return usageError{err}
	}
	for _, n := range shardCounts {
		for _, s := range siteCounts {
			if n%s != 0 {
				return usageError{fmt.Errorf("-sites %d does not divide -shards %d", s, n)}
			}
		}
	}
	// Profile files are created before any experiment runs so a bad path
	// fails in milliseconds, not after hours of simulation.
	pp, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		return usageError{err}
	}
	// Every return below goes through this Stop, so the profile of a run
	// that ends in an error is flushed and loadable too.
	defer func() {
		if serr := pp.Stop(); err == nil {
			err = serr
		}
	}()
	// SIGINT/SIGTERM mid-study: flush the profiles before exiting so a
	// -cpuprofile of an aborted multi-hour run is still loadable.
	guard := shutdown.NewGuard()
	defer guard.Close()
	guard.Add(func() { pp.Stop() })

	// The scale study has its own short default horizon, not the trace
	// studies' 24h; 0 selects it.
	studyHours := *hours
	if !setFlags["hours"] {
		studyHours = 0
	}

	if *exp == "all" || *exp == "section4" {
		var results []*core.TraceResult
		for _, n := range traceNums {
			fmt.Fprintf(stderr, "running trace %d (%.1fh, scale %.2f)...\n", n, *hours, *scale)
			r, err := core.RunTrace(n, core.TraceOptions{Hours: *hours, Scale: *scale, SeedOffset: *seed})
			if err != nil {
				return err
			}
			fmt.Fprintf(stderr, "  %d records\n", r.Records)
			results = append(results, r)
		}
		fmt.Fprintln(stdout, core.TraceReport(results))
		if *cdfDir != "" {
			if err := writeCDFs(*cdfDir, results, stderr); err != nil {
				return err
			}
		}
	}

	if *exp == "all" || *exp == "section5" {
		fmt.Fprintf(stderr, "running counter study (%.1f days, scale %.2f)...\n", *days, *scale)
		r := core.RunCounterStudy(core.CounterOptions{Days: *days, Scale: *scale, Seed: *seed})
		fmt.Fprintln(stdout, core.CounterTables(r))
	}

	if *exp == "claims" {
		fmt.Fprintf(stderr, "running claims (%.1fh per point, scale %.2f)...\n", *hours, *scale)
		r, err := core.RunClaims(*hours, *scale, *seed)
		if err != nil {
			return err
		}
		fmt.Fprint(stdout, core.ClaimTables(r))
	}

	if *exp == "scale" {
		if *clients == 0 {
			*clients = core.DefaultScaleClients
		}
		fmt.Fprintf(stderr, "running scale study (%d clients, shards %s, sites %s)...\n", *clients, *shards, *sites)
		r, err := core.RunScaleStudy(core.ScaleOptions{
			Clients: *clients, Shards: shardCounts, Sites: siteCounts, Hours: studyHours,
			Seed: *seed, Workers: *workers, Lean: *lean,
		})
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, core.ScaleTables(r))
	}

	return nil
}

// parseCounts parses the comma-separated counts of -traces, -shards or
// -sites, each in 1..most (most 0: no upper bound); its errors name the
// flag.
func parseCounts(flag, s string, most int) ([]int, error) {
	want := "a positive integer"
	if most > 0 {
		want = fmt.Sprintf("an integer in 1..%d", most)
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n < 1 || most > 0 && n > most {
			return nil, fmt.Errorf("-%s: bad count %q, want %s", flag, part, want)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-%s: no counts selected", flag)
	}
	return out, nil
}

// writeCDFs dumps the Figure 1-4 cumulative distributions as TSV series,
// one file per (figure, weighting, trace), ready for gnuplot:
//
//	fig1-runs.t3.tsv   fig1-bytes.t3.tsv   fig2-files.t3.tsv ...
func writeCDFs(dir string, results []*core.TraceResult, stderr io.Writer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, r := range results {
		for _, fs := range r.FigureSeries() {
			name, h := strings.ReplaceAll(fs.Name, ".", "-"), fs.Hist
			path := filepath.Join(dir, fmt.Sprintf("%s.t%d.tsv", name, r.TraceNum))
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			fmt.Fprintf(f, "# %s trace %d: x, cumulative fraction\n", name, r.TraceNum)
			for _, p := range h.CDF() {
				fmt.Fprintf(f, "%g\t%.5f\n", p.X, p.Frac)
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
	}
	fmt.Fprintf(stderr, "wrote CDF series for %d traces to %s\n", len(results), dir)
	return nil
}
