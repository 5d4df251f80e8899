package harness

import (
	"fmt"
	"io"
	"text/tabwriter"
)

// Verdict is the outcome of comparing one metric between two run sets.
type Verdict string

const (
	Same    Verdict = "same"
	Worse   Verdict = "worse"
	Better  Verdict = "better"
	Differs Verdict = "differs" // a count or digest that must repeat exactly did not
	Missing Verdict = "missing" // present in one set only
)

// CompareRow is one workload × metric line of a comparison.
type CompareRow struct {
	Workload string
	Metric   string
	Unit     string
	A, B     float64
	// Delta is (B-A)/A; Bound is the metric's bound from BENCHMARK.json, or
	// 0 for values that must be equal.
	Delta, Bound float64
	Verdict      Verdict
}

// Judge compares b against baseline a for a metric whose direction is
// better ("lower" or "higher") and whose tolerated worsening is bound, a
// share of a.
func Judge(a, b float64, better string, bound float64) Verdict {
	lo, hi := a*(1-bound), a*(1+bound)
	if a < 0 {
		lo, hi = hi, lo
	}
	switch {
	case b > hi && better == "lower", b < lo && better == "higher":
		return Worse
	case b < lo && better == "lower", b > hi && better == "higher":
		return Better
	}
	return Same
}

// ExactUnit reports whether a metric of this unit is a simulated count: a
// speed-only change leaves those bit-identical, so two passes or two run
// sets of one seed are held to equality on them.
func ExactUnit(unit string) bool { return unit == "count" || unit == "bytes" }

// Compare judges run set b against baseline a: every end-to-end metric
// against its bound, and — for workloads that carry a digest, that is,
// whose output is a function of the seed alone — the digest and every
// per-layer count for exact equality. ok is false if any row is worse,
// differs or is missing.
func Compare(spec *Spec, a, b *RunSet) (rows []CompareRow, ok bool) {
	ok = true
	add := func(r CompareRow) {
		if r.Verdict != Same && r.Verdict != Better {
			ok = false
		}
		rows = append(rows, r)
	}
	bByName := make(map[string]*WorkloadRun, len(b.Workloads))
	for i := range b.Workloads {
		bByName[b.Workloads[i].Name] = &b.Workloads[i]
	}
	for i := range a.Workloads {
		wa := &a.Workloads[i]
		wb := bByName[wa.Name]
		if wb == nil || wa.EndToEnd == nil || wb.EndToEnd == nil {
			add(CompareRow{Workload: wa.Name, Metric: "*", Verdict: Missing})
			continue
		}
		for _, m := range spec.EndToEnd {
			ma, oka := wa.EndToEnd.Metrics[m.Name]
			mb, okb := wb.EndToEnd.Metrics[m.Name]
			if !oka || !okb {
				add(CompareRow{Workload: wa.Name, Metric: m.Name, Unit: m.Unit, Verdict: Missing})
				continue
			}
			r := CompareRow{Workload: wa.Name, Metric: m.Name, Unit: m.Unit, A: ma.Value, B: mb.Value, Bound: m.Bound}
			if ma.Value != 0 {
				r.Delta = (mb.Value - ma.Value) / ma.Value
			}
			r.Verdict = Judge(ma.Value, mb.Value, m.Better, m.Bound)
			add(r)
		}
		if wa.EndToEnd.Failed != wb.EndToEnd.Failed || !wb.EndToEnd.Correct {
			add(CompareRow{Workload: wa.Name, Metric: "failed", Unit: "count",
				A: float64(wa.EndToEnd.Failed), B: float64(wb.EndToEnd.Failed), Verdict: Differs})
		}
		if wa.Digest == "" && wb.Digest == "" {
			continue // wall-clock workload: nothing repeats exactly
		}
		if wa.Digest != wb.Digest || wa.EndToEnd.Attempted != wb.EndToEnd.Attempted {
			add(CompareRow{Workload: wa.Name, Metric: "digest", Verdict: Differs})
		}
		if wa.PerLayer == nil || wb.PerLayer == nil {
			continue
		}
		for _, m := range spec.PerLayer {
			if !ExactUnit(m.Unit) {
				continue
			}
			ma, mb := wa.PerLayer.Metrics[m.Name], wb.PerLayer.Metrics[m.Name]
			if ma.Value != mb.Value {
				add(CompareRow{Workload: wa.Name, Metric: m.Name, Unit: m.Unit, A: ma.Value, B: mb.Value, Verdict: Differs})
			}
		}
	}
	return rows, ok
}

// WriteCompare renders the comparison as an aligned table.
func WriteCompare(w io.Writer, rows []CompareRow) error {
	tw := tabwriter.NewWriter(w, 0, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA\tB\tunit\tdelta\tbound\tverdict")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%s\t%+.1f%%\t%.0f%%\t%s\n",
			r.Workload, r.Metric, r.A, r.B, r.Unit, 100*r.Delta, 100*r.Bound, r.Verdict)
	}
	return tw.Flush()
}
