// Command spritebench is the repository's benchmark: five named workloads,
// end-to-end metrics from an untraced pass, per-layer metrics from a traced
// pass, and a comparison of two sets of runs against the bounds in
// BENCHMARK.json.
//
//	spritebench --workload W --seed N --seconds S --trace 0|1
//	    one run of one workload in this process; the last line of standard
//	    output is the result object BENCHMARK.json's contract describes
//	spritebench [all] [-seed N] [-runs R] [-seconds S] [-traced] [-only W,...] [-json FILE]
//	    every workload, each run in its own child process, one at a time;
//	    end-to-end values are medians over R runs of consecutive seeds
//	spritebench compare [-spec BENCHMARK.json] A.json B.json
//	    judge run set B against run set A; exit 1 if anything got worse
//	spritebench spec
//	    print BENCHMARK.json as the workloads package declares it
//
// See ../../README.md.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"text/tabwriter"

	"spritefs/bench/harness"
	"spritefs/bench/workloads"
)

// infoPrefix marks the line a single run prints before its result: what a
// parent process needs and the result object has no room for.
const infoPrefix = "#info "

type runInfo struct {
	Digest     string   `json:"digest,omitempty"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Notes      []string `json:"notes,omitempty"`
}

func main() {
	args := os.Args[1:]
	var err error
	switch {
	case len(args) > 0 && args[0] == "compare":
		err = compareCmd(args[1:])
	case len(args) > 0 && args[0] == "spec":
		err = specCmd()
	case len(args) > 0 && args[0] == "all":
		err = runCmd(args[1:])
	default:
		err = runCmd(args)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "spritebench:", err)
		os.Exit(1)
	}
}

func runCmd(args []string) error {
	fs := flag.NewFlagSet("spritebench", flag.ContinueOnError)
	workload := fs.String("workload", "", "run this one workload in this process")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", workloads.RunSeconds, "measuring time the fixed work is sized for")
	trace := fs.Int("trace", 0, "with -workload: 0 = untraced pass (end-to-end metrics), 1 = traced pass (per-layer metrics)")
	traced := fs.Bool("traced", false, "without -workload: also run every workload's traced pass")
	runs := fs.Int("runs", 1, "without -workload: untraced runs per workload, seeds seed..seed+runs-1; medians are reported")
	only := fs.String("only", "", "without -workload: comma-separated workloads to run (default all)")
	jsonOut := fs.String("json", "", "without -workload: write the run set to this file, for compare")
	outDir := fs.String("out", ".bench_build/out", "directory the traced pass writes spans and layer tables to")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *seconds < 1 || *seconds > 60 {
		return fmt.Errorf("-seconds %g is outside 1..60", *seconds)
	}
	if *workload != "" {
		return runOne(*workload, *seed, *seconds, *trace, *outDir)
	}
	return runAll(*seed, *runs, *seconds, *traced, *only, *jsonOut, *outDir)
}

// runOne is one run of one workload in this process.
func runOne(name string, seed int64, seconds float64, trace int, outDir string) error {
	w, err := workloads.ByName(name)
	if err != nil {
		return err
	}
	env := workloads.Env{Seed: seed, Seconds: seconds, Procs: harness.SetProcs()}
	var out *workloads.Outcome
	switch trace {
	case 0:
		out, err = workloads.RunUntraced(w, env)
	case 1:
		out, err = workloads.RunTraced(w, env, outDir, os.Stderr)
	default:
		return fmt.Errorf("-trace %d is neither 0 nor 1", trace)
	}
	if err != nil {
		return err
	}
	if !strings.Contains(os.Getenv("GODEBUG"), "madvdontneed=0") {
		out.Notes = append(out.Notes, "GODEBUG=madvdontneed=0 is not set (bench/run.sh sets it): where the host takes free pages away, the passes pay for getting them back")
	}
	for _, n := range out.Notes {
		fmt.Fprintf(os.Stderr, "%s: %s\n", name, n)
	}
	info, err := json.Marshal(runInfo{Digest: out.Digest, GOMAXPROCS: env.Procs, Notes: out.Notes})
	if err != nil {
		return err
	}
	res, err := json.Marshal(out.Result)
	if err != nil {
		return err
	}
	fmt.Printf("%s%s\n%s\n", infoPrefix, info, res)
	if !out.Result.Correct {
		return fmt.Errorf("%s: a correctness check failed", name)
	}
	return nil
}

// child runs one run of one workload in a child process of this same binary, so
// that the heap and the runtime's state belong to that run alone.
func child(name string, seed int64, seconds float64, trace int, outDir string) (*harness.Result, *runInfo, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	cmd := exec.Command(exe,
		"-workload", name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
		"-trace", fmt.Sprint(trace), "-out", outDir)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	runErr := cmd.Run() // Run waits for the child to exit
	var info runInfo
	var last string
	sc := bufio.NewScanner(&stdout)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, infoPrefix); ok {
			if err := json.Unmarshal([]byte(rest), &info); err != nil {
				return nil, nil, fmt.Errorf("%s: info line: %w", name, err)
			}
		} else if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if runErr != nil && last == "" {
		return nil, nil, fmt.Errorf("%s: %w", name, runErr)
	}
	var res harness.Result
	if err := json.Unmarshal([]byte(last), &res); err != nil {
		return nil, nil, fmt.Errorf("%s: result line: %w", name, err)
	}
	return &res, &info, nil
}

func runAll(seed int64, runs int, seconds float64, traced bool, only, jsonOut, outDir string) error {
	var names []string
	for _, w := range workloads.All() {
		if only == "" || strings.Contains(","+only+",", ","+w.Name()+",") {
			names = append(names, w.Name())
		}
	}
	if len(names) == 0 {
		return fmt.Errorf("-only %q names no workload", only)
	}
	host, _ := os.Hostname()
	set := &harness.RunSet{
		Host:      fmt.Sprintf("%s %s/%s %d cpu", host, runtime.GOOS, runtime.GOARCH, runtime.NumCPU()),
		GoVersion: runtime.Version(), Seed: seed, Runs: runs, Seconds: seconds,
	}
	ok := true
	for _, name := range names {
		fmt.Fprintf(os.Stderr, "== %s: untraced pass\n", name)
		res, info, err := child(name, seed, seconds, 0, outDir)
		if err != nil {
			return err
		}
		if runs > 1 {
			if err := medianOfRuns(res, name, seed, runs, seconds, outDir); err != nil {
				return err
			}
		}
		run := harness.WorkloadRun{Name: name, Digest: info.Digest, EndToEnd: res}
		set.GOMAXPROCS = info.GOMAXPROCS
		ok = ok && res.Correct
		if traced {
			fmt.Fprintf(os.Stderr, "== %s: traced pass\n", name)
			tres, tinfo, err := child(name, seed, seconds, 1, outDir)
			if err != nil {
				return err
			}
			run.PerLayer = tres
			ok = ok && tres.Correct
			if tinfo.Digest != info.Digest {
				ok = false
				fmt.Fprintf(os.Stderr, "%s: CHECK FAILED: digest %s untraced, %s traced\n", name, info.Digest, tinfo.Digest)
			}
		}
		set.Workloads = append(set.Workloads, run)
	}
	printSet(set)
	if jsonOut != "" {
		b, err := json.MarshalIndent(set, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(jsonOut, append(b, '\n'), 0o644); err != nil {
			return err
		}
	}
	if !ok {
		return fmt.Errorf("a correctness check failed")
	}
	return nil
}

// medianOfRuns repeats the untraced pass with the seeds after seed and
// replaces each metric of first, the run of seed itself, by the median over
// all runs; a failure in any run fails the set. The digest and the traced
// pass stay those of seed. One run of a timing on the reference host can be
// a quarter off; the median of a few is what two sets should be compared on.
func medianOfRuns(first *harness.Result, name string, seed int64, runs int, seconds float64, outDir string) error {
	values := make(map[string][]float64, len(first.Metrics))
	for k, m := range first.Metrics {
		values[k] = []float64{m.Value}
	}
	for i := 1; i < runs; i++ {
		res, _, err := child(name, seed+int64(i), seconds, 0, outDir)
		if err != nil {
			return err
		}
		first.Correct = first.Correct && res.Correct
		first.Failed += res.Failed
		for k, m := range res.Metrics {
			values[k] = append(values[k], m.Value)
		}
	}
	for k, m := range first.Metrics {
		m.Value = harness.Median(values[k])
		first.Metrics[k] = m
	}
	return nil
}

// printSet prints every metric by name with its unit, one column a workload.
func printSet(set *harness.RunSet) {
	fmt.Printf("host: %s, %s, GOMAXPROCS=%d, seed=%d, median of %d run(s), sized for %gs\n\n",
		set.Host, set.GoVersion, set.GOMAXPROCS, set.Seed, set.Runs, set.Seconds)
	tw := tabwriter.NewWriter(os.Stdout, 0, 8, 2, ' ', tabwriter.AlignRight)
	header := "metric\tunit\t"
	for _, w := range set.Workloads {
		header += w.Name + "\t"
	}
	fmt.Fprintln(tw, header)
	row := func(name, unit string, cell func(*harness.WorkloadRun) string) {
		line := name + "\t" + unit + "\t"
		for i := range set.Workloads {
			line += cell(&set.Workloads[i]) + "\t"
		}
		fmt.Fprintln(tw, line)
	}
	for _, m := range workloads.EndToEnd {
		row(m.Name, m.Unit, func(w *harness.WorkloadRun) string {
			return fmt.Sprintf("%.6g", w.EndToEnd.Metrics[m.Name].Value)
		})
	}
	row("attempted", "count", func(w *harness.WorkloadRun) string { return fmt.Sprint(w.EndToEnd.Attempted) })
	row("failed", "count", func(w *harness.WorkloadRun) string { return fmt.Sprint(w.EndToEnd.Failed) })
	row("correct", "", func(w *harness.WorkloadRun) string { return fmt.Sprint(w.EndToEnd.Correct) })
	row("digest", "", func(w *harness.WorkloadRun) string {
		if len(w.Digest) < 12 {
			return "-"
		}
		return w.Digest[:12]
	})
	if set.Workloads[0].PerLayer != nil {
		fmt.Fprintln(tw, "\t\t")
		for _, m := range workloads.PerLayer {
			row(m.Name, m.Unit, func(w *harness.WorkloadRun) string {
				return fmt.Sprintf("%.6g", w.PerLayer.Metrics[m.Name].Value)
			})
		}
	}
	tw.Flush()
}

func compareCmd(args []string) error {
	fs := flag.NewFlagSet("spritebench compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "the benchmark's declaration, for the bounds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("compare needs two run-set files, got %d", fs.NArg())
	}
	spec, err := harness.LoadSpec(*specPath)
	if err != nil {
		return err
	}
	a, err := harness.LoadRunSet(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := harness.LoadRunSet(fs.Arg(1))
	if err != nil {
		return err
	}
	rows, ok := harness.Compare(spec, a, b)
	if err := harness.WriteCompare(os.Stdout, rows); err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("%s is worse than, or differs from, %s", fs.Arg(1), fs.Arg(0))
	}
	return nil
}

func specCmd() error {
	b, err := json.MarshalIndent(workloads.Spec(), "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", b)
	return err
}
