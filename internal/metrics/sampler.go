package metrics

import (
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"
	"strings"
	"time"
)

// Sampler turns the registry into time series: each Sample(now) call
// appends one row of metric values, and every row is kept: memory grows
// with the number of samples (horizon ÷ interval). The cluster drives it
// at Config.SamplePeriod on the simulation clock, its one periodic reader
// of counters (Table 4 is a projection of the rows), which is what keeps
// sampled series deterministic: virtual time, not wall time, indexes every
// row.
//
// Summary metrics are skipped — series of expanded summary points are
// rarely what an interval study wants, and skipping them keeps rows
// compact. Use match to restrict sampling further (the cluster's default
// keeps only Table 4's families).
type Sampler struct {
	reg *Registry
	// match selects which metric instances are sampled (nil = all
	// non-summary instances).
	match func(name string) bool

	cols   []seriesCol
	colIdx map[string]int
	rows   []row
	// Families and instances are only ever appended: seen counts the
	// families judged by match, a cursor's n its family's resolved instances.
	seen int
	fams []famCursor
}

type famCursor struct {
	f *Family
	n int
}

// seriesCol is one sampled instance, f.instances[i]. It holds the index,
// not a pointer: appending to a family moves its instances.
type seriesCol struct {
	f *Family
	i int
}

func (c seriesCol) m() *metric { return &c.f.instances[c.i] }

type row struct {
	t time.Duration
	v []float64
}

// NewSampler returns a sampler over reg. match, when non-nil, restricts
// sampling to metric families it accepts.
func NewSampler(reg *Registry, match func(name string) bool) *Sampler {
	return &Sampler{reg: reg, match: match, colIdx: make(map[string]int)}
}

// Sample reads every selected metric now and appends one row stamped with
// the given virtual time. New metric instances (replay materializes
// clients lazily) extend the column set; earlier rows read as NaN in the
// missing columns. Once every instance has its column, a row allocates
// only its value slice.
func (s *Sampler) Sample(now time.Duration) {
	for _, f := range s.reg.s.fams[s.seen:] {
		if f.Desc.Kind != Summary && (s.match == nil || s.match(f.Desc.Name)) {
			s.fams = append(s.fams, famCursor{f: f})
		}
	}
	s.seen = len(s.reg.s.fams)
	for i := range s.fams {
		fc := &s.fams[i]
		for j := fc.n; j < len(fc.f.instances); j++ {
			s.colIdx[fc.f.Desc.Name+fc.f.instances[j].set.key] = len(s.cols)
			s.cols = append(s.cols, seriesCol{fc.f, j})
		}
		fc.n = len(fc.f.instances)
	}
	vals := make([]float64, len(s.cols))
	for i, c := range s.cols {
		if m := c.m(); m.isInt() {
			vals[i] = float64(m.intVal())
		} else {
			vals[i] = m.durVal().Seconds()
		}
	}
	s.rows = append(s.rows, row{t: now, v: vals})
}

// Len returns the number of sampled rows.
func (s *Sampler) Len() int { return len(s.rows) }

// Series is one sampled metric's full time series, in time order.
type Series struct {
	Name   string
	Labels string
	Unit   string
	Times  []time.Duration
	Values []float64 // NaN where the instance did not exist yet
}

// sortedCols returns column indices sorted by (name, labels), the
// deterministic export order.
func (s *Sampler) sortedCols() []int {
	idx := make([]int, len(s.cols))
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int {
		ca, cb := s.cols[a], s.cols[b]
		if c := cmp.Compare(ca.f.Desc.Name, cb.f.Desc.Name); c != 0 {
			return c
		}
		return cmp.Compare(ca.m().set.key, cb.m().set.key)
	})
	return idx
}

// Get returns the series for one metric instance (labels as rendered by
// Labels.String, "" for none), or an empty series if never sampled.
func (s *Sampler) Get(name, labels string) Series {
	if ci, ok := s.colIdx[name+labels]; ok {
		return s.series(ci)
	}
	return Series{Name: name, Labels: labels}
}

// series builds column ci's series over every row.
func (s *Sampler) series(ci int) Series {
	c := s.cols[ci]
	ser := Series{Name: c.f.Desc.Name, Labels: c.m().set.key, Unit: c.f.Desc.Unit,
		Times: make([]time.Duration, len(s.rows)), Values: make([]float64, len(s.rows))}
	for i, r := range s.rows {
		ser.Times[i], ser.Values[i] = r.t, math.NaN()
		if ci < len(r.v) {
			ser.Values[i] = r.v[ci]
		}
	}
	return ser
}

// WriteTSV renders the series as a matrix: one row per sample time, one
// column per metric instance, columns sorted by (name, labels). A value
// from before its instance existed renders as "-".
func (s *Sampler) WriteTSV(w io.Writer) error {
	cols := s.sortedCols()
	var b strings.Builder
	b.WriteString("time_seconds")
	for _, ci := range cols {
		b.WriteByte('\t')
		b.WriteString(s.cols[ci].f.Desc.Name)
		b.WriteString(s.cols[ci].m().set.key)
	}
	b.WriteByte('\n')
	for _, r := range s.rows {
		b.WriteString(formatFloat(r.t.Seconds()))
		for _, ci := range cols {
			b.WriteByte('\t')
			if ci < len(r.v) {
				b.WriteString(formatFloat(r.v[ci]))
			} else {
				b.WriteByte('-')
			}
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteJSONL renders one JSON object per (time, metric) value.
func (s *Sampler) WriteJSONL(w io.Writer) error {
	cols := s.sortedCols()
	for _, r := range s.rows {
		for _, ci := range cols {
			if ci >= len(r.v) {
				continue
			}
			c := s.cols[ci]
			if _, err := fmt.Fprintf(w, "{\"t\":%s,\"name\":%q,\"labels\":%q,\"value\":%s}\n",
				formatFloat(r.t.Seconds()), c.f.Desc.Name, c.m().set.key, formatFloat(r.v[ci])); err != nil {
				return err
			}
		}
	}
	return nil
}

// WritePrometheus renders the series in Prometheus text format with
// millisecond timestamps — a scrape archive a TSDB can ingest directly.
func (s *Sampler) WritePrometheus(w io.Writer) error {
	cols := s.sortedCols()
	for _, ci := range cols {
		c := s.cols[ci]
		for _, r := range s.rows {
			if ci >= len(r.v) {
				continue
			}
			if _, err := fmt.Fprintf(w, "%s%s %s %d\n",
				c.f.Desc.Name, c.m().set.key, formatFloat(r.v[ci]), r.t.Milliseconds()); err != nil {
				return err
			}
		}
	}
	return nil
}

// Dump renders the sampled series in the named format.
func (s *Sampler) Dump(w io.Writer, format string) error {
	switch format {
	case "prom", "prometheus":
		return s.WritePrometheus(w)
	case "tsv":
		return s.WriteTSV(w)
	case "jsonl", "json":
		return s.WriteJSONL(w)
	default:
		return fmt.Errorf("metrics: unknown series format %q (prom, tsv, jsonl)", format)
	}
}
