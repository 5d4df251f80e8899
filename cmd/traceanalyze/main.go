// Command traceanalyze merges per-server trace files (written by
// cmd/tracegen, binary or text) and runs the Section 4 analyses over
// them: overall statistics (Table 1), user activity (Table 2), access
// patterns (Table 3), the run-length / size / open-time / lifetime
// distributions (Figures 1-4), the trace-derived consistency actions
// (Table 10), and the Section 5.5-5.6 consistency simulations (Tables
// 11-12). It prints the tables `experiments -exp section4` prints, with
// the paper's values beside the measured ones, then a detail table of
// every other number the analyses compute.
//
// Usage:
//
//	traceanalyze trace1.srv0 trace1.srv1 trace1.srv2 trace1.srv3
//	traceanalyze -exclude-users 3,7 trace1.srv*
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"spritefs/internal/core"
	"spritefs/internal/trace"
	"spritefs/internal/traceio"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "traceanalyze:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("traceanalyze", flag.ContinueOnError)
	var (
		exclude = fs.String("exclude-users", "", "comma-separated user ids to drop (paper §4.2's kernel-group check)")
		cdf     = fs.Bool("cdf", false, "print full CDFs for Figures 1-4 (tab-separated)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() == 0 {
		return fmt.Errorf("no trace files (usage: traceanalyze [flags] tracefile...)")
	}
	var users []int32
	if *exclude != "" {
		for _, part := range strings.Split(*exclude, ",") {
			n, err := strconv.ParseInt(strings.TrimSpace(part), 10, 32)
			if err != nil {
				return fmt.Errorf("-exclude-users: bad user id %q", part)
			}
			if n < 0 {
				return fmt.Errorf("-exclude-users: user ids are at least 0 (got %d)", n)
			}
			users = append(users, int32(n))
		}
	}
	merged, closeAll, err := traceio.Source{}.Open(fs.Args(), nil)
	if err != nil {
		return err
	}
	defer closeAll()
	if len(users) > 0 {
		merged = trace.ExcludeUsers(merged, users...)
	}
	res, err := core.AnalyzeTrace(0, 0, merged)
	if err != nil {
		return err
	}

	// A trace's duration is what it spans; AnalyzeTrace only labels it.
	res.Hours = res.Overall.Duration.Hours()
	results := []*core.TraceResult{res}
	if _, err := fmt.Fprintf(out, "%s%s\n", core.TraceReport(results), core.TraceDetail(results)); err != nil {
		return err
	}
	if *cdf {
		for _, fs := range res.FigureSeries() {
			for _, p := range fs.Hist.CDF() {
				fmt.Fprintf(out, "%s\t%g\t%.4f\n", fs.Name, p.X, p.Frac)
			}
		}
	}
	return nil
}
