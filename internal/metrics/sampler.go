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
// with the number of samples (horizon ÷ interval). The owner
// drives it from the simulation clock (cluster and replay schedule it at
// Config.SamplePeriod), which is what keeps sampled series deterministic:
// virtual time, not wall time, indexes every row.
//
// Summary metrics are skipped — series of expanded summary points are
// rarely what an interval study wants, and skipping them keeps rows
// compact. Use Match to restrict sampling further (e.g. only the
// per-client traffic counters for a Table 2 style activity study).
type Sampler struct {
	reg *Registry
	// match selects which metric instances are sampled (nil = all
	// non-summary instances).
	match func(name string) bool

	cols   []seriesCol
	colIdx map[string]int
	rows   []row
}

type seriesCol struct {
	name   string
	labels string
	unit   string
}

func (c seriesCol) id() string { return c.name + c.labels }

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
// missing columns.
func (s *Sampler) Sample(now time.Duration) {
	vals := make([]float64, len(s.cols))
	for i := range vals {
		vals[i] = nan()
	}
	for _, f := range s.reg.s.fams {
		if f.Desc.Kind == Summary {
			continue
		}
		if s.match != nil && !s.match(f.Desc.Name) {
			continue
		}
		for _, m := range f.instances {
			col := seriesCol{name: f.Desc.Name, labels: m.key, unit: f.Desc.Unit}
			idx, ok := s.colIdx[col.id()]
			if !ok {
				idx = len(s.cols)
				s.cols = append(s.cols, col)
				s.colIdx[col.id()] = idx
				vals = append(vals, nan())
			}
			if m.isInt() {
				vals[idx] = float64(m.intVal())
			} else {
				vals[idx] = m.durVal().Seconds()
			}
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
		if c := cmp.Compare(ca.name, cb.name); c != 0 {
			return c
		}
		return cmp.Compare(ca.labels, cb.labels)
	})
	return idx
}

// All returns every sampled series sorted by (name, labels).
func (s *Sampler) All() []Series {
	var out []Series
	for _, ci := range s.sortedCols() {
		c := s.cols[ci]
		ser := Series{Name: c.name, Labels: c.labels, Unit: c.unit}
		for _, r := range s.rows {
			ser.Times = append(ser.Times, r.t)
			if ci < len(r.v) {
				ser.Values = append(ser.Values, r.v[ci])
			} else {
				ser.Values = append(ser.Values, nan())
			}
		}
		out = append(out, ser)
	}
	return out
}

// Get returns the series for one metric instance (labels as rendered by
// Labels.String, "" for none), or an empty series if never sampled.
func (s *Sampler) Get(name, labels string) Series {
	for _, ser := range s.All() {
		if ser.Name == name && ser.Labels == labels {
			return ser
		}
	}
	return Series{Name: name, Labels: labels}
}

// WriteTSV renders the series as a matrix: one row per sample time, one
// column per metric instance, columns sorted by (name, labels). Missing
// values render as "-".
func (s *Sampler) WriteTSV(w io.Writer) error {
	cols := s.sortedCols()
	var b strings.Builder
	b.WriteString("time_seconds")
	for _, ci := range cols {
		b.WriteByte('\t')
		b.WriteString(s.cols[ci].name)
		b.WriteString(s.cols[ci].labels)
	}
	b.WriteByte('\n')
	for _, r := range s.rows {
		b.WriteString(formatFloat(r.t.Seconds()))
		for _, ci := range cols {
			b.WriteByte('\t')
			if ci < len(r.v) && !isNaN(r.v[ci]) {
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
			if ci >= len(r.v) || isNaN(r.v[ci]) {
				continue
			}
			c := s.cols[ci]
			if _, err := fmt.Fprintf(w, "{\"t\":%s,\"name\":%q,\"labels\":%q,\"value\":%s}\n",
				formatFloat(r.t.Seconds()), c.name, c.labels, formatFloat(r.v[ci])); err != nil {
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
			if ci >= len(r.v) || isNaN(r.v[ci]) {
				continue
			}
			if _, err := fmt.Fprintf(w, "%s%s %s %d\n",
				c.name, c.labels, formatFloat(r.v[ci]), r.t.Milliseconds()); err != nil {
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

func nan() float64 { return math.NaN() }

func isNaN(v float64) bool { return math.IsNaN(v) }
