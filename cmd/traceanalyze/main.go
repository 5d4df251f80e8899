// Command traceanalyze merges per-server trace files (written by
// cmd/tracegen, binary or text) and runs the Section 4 analyses over
// them: overall statistics (Table 1), user activity (Table 2), access
// patterns (Table 3), the run-length / size / open-time / lifetime
// distributions (Figures 1-4), the trace-derived consistency actions
// (Table 10), and the Section 5.5-5.6 consistency simulations (Tables
// 11-12).
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
	"time"

	"spritefs/internal/analysis"
	"spritefs/internal/consistency"
	"spritefs/internal/core"
	"spritefs/internal/stats"
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
	merged, closeAll, err := traceio.Source{}.Open(fs.Args(), nil)
	if err != nil {
		return err
	}
	defer closeAll()
	if *exclude != "" {
		var users []int32
		for _, part := range strings.Split(*exclude, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return fmt.Errorf("bad user id %q", part)
			}
			users = append(users, int32(n))
		}
		merged = trace.ExcludeUsers(merged, users...)
	}
	res, err := core.AnalyzeTrace(0, 0, merged)
	if err != nil {
		return err
	}

	printOverall(out, res.Overall)
	printActivity(out, res.Activity)
	printAccess(out, res.Access)
	printFigures(out, res, *cdf)
	printActions(out, res.Actions)
	printStale(out, res.Stale60)
	printStale(out, res.Stale3)
	printOverhead(out, res.Overhead)
	return nil
}

func printOverall(w io.Writer, o *analysis.Overall) {
	t := stats.NewTable("Overall statistics (Table 1)", "Metric", "Value")
	t.AddRow("duration", o.Duration.Truncate(time.Second).String())
	t.AddRow("users", fmt.Sprint(o.Users))
	t.AddRow("migration users", fmt.Sprint(o.MigrationUsers))
	t.AddRowf("MB read from files", "%.1f", o.MBReadFiles)
	t.AddRowf("MB written to files", "%.1f", o.MBWrittenFiles)
	t.AddRowf("MB read from dirs", "%.1f", o.MBReadDirs)
	t.AddRow("opens", fmt.Sprint(o.Opens))
	t.AddRow("closes", fmt.Sprint(o.Closes))
	t.AddRow("repositions", fmt.Sprint(o.Repositions))
	t.AddRow("deletes", fmt.Sprint(o.Deletes))
	t.AddRow("truncates", fmt.Sprint(o.Truncates))
	t.AddRow("shared reads", fmt.Sprint(o.SharedReads))
	t.AddRow("shared writes", fmt.Sprint(o.SharedWrites))
	fmt.Fprintln(w, t)
}

func printActivity(w io.Writer, u *analysis.UserActivity) {
	t := stats.NewTable("User activity (Table 2)", "Metric", "10-min", "10-min mig", "10-sec", "10-sec mig")
	row := func(label string, f func(*analysis.ActivityRow) float64) {
		t.AddRow(label,
			fmt.Sprintf("%.2f", f(&u.TenMinAll)), fmt.Sprintf("%.2f", f(&u.TenMinMigrated)),
			fmt.Sprintf("%.2f", f(&u.TenSecAll)), fmt.Sprintf("%.2f", f(&u.TenSecMigrated)))
	}
	row("avg active users", func(r *analysis.ActivityRow) float64 { return r.AvgActiveUsers })
	row("max active users", func(r *analysis.ActivityRow) float64 { return float64(r.MaxActiveUsers) })
	row("avg throughput (KB/s)", func(r *analysis.ActivityRow) float64 { return r.AvgThroughputKBs })
	row("sd throughput (KB/s)", func(r *analysis.ActivityRow) float64 { return r.SDThroughputKBs })
	row("peak user (KB/s)", func(r *analysis.ActivityRow) float64 { return r.PeakUserKBs })
	row("peak total (KB/s)", func(r *analysis.ActivityRow) float64 { return r.PeakTotalKBs })
	fmt.Fprintln(w, t)
}

func printAccess(w io.Writer, a *analysis.AccessPatterns) {
	t := stats.NewTable("Access patterns (Table 3)", "Class", "Acc %", "Bytes %",
		"whole/seq/random (acc %)", "whole/seq/random (bytes %)")
	for class := 0; class < analysis.NumClasses; class++ {
		acc, bytes := a.ClassPct(class)
		var accs, byts [analysis.NumSeqs]float64
		for seq := 0; seq < analysis.NumSeqs; seq++ {
			accs[seq], byts[seq] = a.SeqPct(class, seq)
		}
		t.AddRow(analysis.ClassNames[class],
			fmt.Sprintf("%.1f", acc), fmt.Sprintf("%.1f", bytes),
			fmt.Sprintf("%.0f/%.0f/%.0f", accs[0], accs[1], accs[2]),
			fmt.Sprintf("%.0f/%.0f/%.0f", byts[0], byts[1], byts[2]))
	}
	fmt.Fprintln(w, t)
}

func printFigures(w io.Writer, r *core.TraceResult, full bool) {
	a, l := r.Access, r.Lifetime
	t := stats.NewTable("Distribution checkpoints (Figures 1-4)", "Metric", "Value")
	t.AddRowf("runs <= 10KB (% by runs)", "%.1f", 100*a.RunsByCount.FracAtOrBelow(10*1024))
	t.AddRowf("bytes in runs > 1MB (%)", "%.1f", 100*(1-a.RunsByBytes.FracAtOrBelow(1<<20)))
	t.AddRowf("accesses to files <= 10KB (%)", "%.1f", 100*a.SizeByFiles.FracAtOrBelow(10*1024))
	t.AddRowf("bytes from files >= 1MB (%)", "%.1f", 100*(1-a.SizeByBytes.FracAtOrBelow(1<<20)))
	t.AddRowf("opens <= 0.25s (%)", "%.1f", 100*a.OpenTimes.FracAtOrBelow(0.25))
	t.AddRowf("files living < 30s (%)", "%.1f", l.PctFilesUnder30s())
	t.AddRowf("bytes living < 30s (%)", "%.1f", l.PctBytesUnder30s())
	fmt.Fprintln(w, t)
	if !full {
		return
	}
	for _, fs := range r.FigureSeries() {
		for _, p := range fs.Hist.CDF() {
			fmt.Fprintf(w, "%s\t%g\t%.4f\n", fs.Name, p.X, p.Frac)
		}
	}
}

func printActions(w io.Writer, c *analysis.ConsistencyActions) {
	t := stats.NewTable("Consistency actions (Table 10)", "Action", "% of opens")
	t.AddRowf("concurrent write-sharing", "%.2f", c.PctCWS())
	t.AddRowf("server recall", "%.2f", c.PctRecalls())
	fmt.Fprintln(w, t)
}

func printStale(w io.Writer, r consistency.StaleResult) {
	t := stats.NewTable(fmt.Sprintf("Stale-data simulation, %v interval (Table 11)", r.Interval), "Metric", "Value")
	t.AddRow("errors", fmt.Sprint(r.Errors))
	t.AddRowf("errors/hour", "%.2f", r.ErrorsPerHour)
	t.AddRowf("users affected (%)", "%.1f", r.PctUsersAffected())
	t.AddRowf("opens with error (%)", "%.3f", r.PctOpensWithError())
	t.AddRowf("migrated opens with error (%)", "%.3f", r.PctMigratedOpensWithError())
	fmt.Fprintln(w, t)
}

func printOverhead(w io.Writer, o consistency.Overhead) {
	t := stats.NewTable("Consistency overheads (Table 12)", "Algorithm", "Byte ratio", "RPC ratio")
	for a := 0; a < consistency.NumAlgs; a++ {
		t.AddRow(consistency.AlgNames[a],
			fmt.Sprintf("%.3f", o.ByteRatio(a)), fmt.Sprintf("%.3f", o.RPCRatio(a)))
	}
	fmt.Fprintln(w, t)
}
