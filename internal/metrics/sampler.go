package metrics

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
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
	// Families and their registrations are only ever appended: seen counts
	// the families judged by match, a cursor's n its family's registrations
	// followed.
	seen int
	fams []famCursor
	regs []sampledReg
}

type famCursor struct {
	f *Family
	n int
}

// sampledReg follows one registration, f.regs[k] (an index, not a
// pointer: appending to a family moves its registrations). ids holds its
// members' IDs in population order at the last row, cols each one's
// column: a member keeps its column by ID when a population inserts
// before it.
type sampledReg struct {
	f    *Family
	k    int
	ids  []int64
	cols []int
}

func (sr *sampledReg) m() *metric { return &sr.f.regs[sr.k] }

// seriesCol is one sampled instance.
type seriesCol struct {
	f   *Family
	key string
}

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
// the given virtual time. New instances (replay materializes clients
// lazily; a population may grow between rows) extend the column set;
// earlier rows read as NaN in the missing columns. Once every instance has
// its column, a row allocates only its value slice.
func (s *Sampler) Sample(now time.Duration) {
	for _, f := range s.reg.s.fams[s.seen:] {
		if f.Desc.Kind != Summary && (s.match == nil || s.match(f.Desc.Name)) {
			s.fams = append(s.fams, famCursor{f: f})
		}
	}
	s.seen = len(s.reg.s.fams)
	for i := range s.fams {
		fc := &s.fams[i]
		for ; fc.n < len(fc.f.regs); fc.n++ {
			s.regs = append(s.regs, sampledReg{f: fc.f, k: fc.n})
		}
	}
	for i := range s.regs {
		s.resolve(&s.regs[i])
	}
	vals := make([]float64, len(s.cols))
	for _, sr := range s.regs {
		m := sr.m()
		for i, ci := range sr.cols {
			if m.isInt() {
				vals[ci] = float64(m.intVal(i))
			} else {
				vals[ci] = m.durVal(i).Seconds()
			}
		}
	}
	s.rows = append(s.rows, row{t: now, v: vals})
}

// resolve gives every current member of sr its column, by ID: a member
// seen before keeps its column wherever the population now holds it.
func (s *Sampler) resolve(sr *sampledReg) {
	m := sr.m()
	if m.pop == nil {
		if len(sr.cols) == 0 {
			sr.cols = append(sr.cols, s.newCol(sr.f, m.set.key))
		}
		return
	}
	n := m.pop.Len()
	moved := n < len(sr.ids)
	for i := 0; i < len(sr.ids) && !moved; i++ {
		moved = m.pop.ID(i) != sr.ids[i]
	}
	if moved {
		byID := make(map[int64]int, len(sr.ids))
		for i, id := range sr.ids {
			byID[id] = sr.cols[i]
		}
		sr.ids, sr.cols = sr.ids[:0], sr.cols[:0]
		for i := 0; i < n; i++ {
			id := m.pop.ID(i)
			ci, ok := byID[id]
			if !ok {
				ci = s.newCol(sr.f, m.key(i))
			}
			sr.ids, sr.cols = append(sr.ids, id), append(sr.cols, ci)
		}
		return
	}
	for i := len(sr.ids); i < n; i++ {
		sr.ids, sr.cols = append(sr.ids, m.pop.ID(i)), append(sr.cols, s.newCol(sr.f, m.key(i)))
	}
}

// newCol adds the column of one instance and returns its index.
func (s *Sampler) newCol(f *Family, key string) int {
	s.colIdx[f.Desc.Name+key] = len(s.cols)
	s.cols = append(s.cols, seriesCol{f, key})
	return len(s.cols) - 1
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
		return cmp.Compare(ca.key, cb.key)
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
	ser := Series{Name: c.f.Desc.Name, Labels: c.key, Unit: c.f.Desc.Unit,
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
	bw := bufio.NewWriterSize(w, chunkSize)
	bw.WriteString("time_seconds")
	for _, ci := range cols {
		bw.Write(append(append(append(bw.AvailableBuffer(), '\t'), s.cols[ci].f.Desc.Name...), s.cols[ci].key...))
	}
	bw.WriteByte('\n')
	for _, r := range s.rows {
		bw.Write(appendFloat(bw.AvailableBuffer(), r.t.Seconds()))
		for _, ci := range cols {
			b := append(bw.AvailableBuffer(), '\t')
			if ci < len(r.v) {
				b = appendFloat(b, r.v[ci])
			} else {
				b = append(b, '-')
			}
			bw.Write(b)
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteJSONL renders one JSON object per (time, metric) value.
func (s *Sampler) WriteJSONL(w io.Writer) error {
	cols := s.sortedCols()
	bw := bufio.NewWriterSize(w, chunkSize)
	for _, r := range s.rows {
		for _, ci := range cols {
			if ci >= len(r.v) {
				continue
			}
			c := s.cols[ci]
			b := appendFloat(append(bw.AvailableBuffer(), `{"t":`...), r.t.Seconds())
			b = strconv.AppendQuote(append(b, `,"name":`...), c.f.Desc.Name)
			b = strconv.AppendQuote(append(b, `,"labels":`...), c.key)
			if _, err := bw.Write(append(appendFloat(append(b, `,"value":`...), r.v[ci]), '}', '\n')); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// WritePrometheus renders the series in Prometheus text format with
// millisecond timestamps — a scrape archive a TSDB can ingest directly.
func (s *Sampler) WritePrometheus(w io.Writer) error {
	cols := s.sortedCols()
	bw := bufio.NewWriterSize(w, chunkSize)
	for _, ci := range cols {
		c := s.cols[ci]
		for _, r := range s.rows {
			if ci >= len(r.v) {
				continue
			}
			b := append(append(append(bw.AvailableBuffer(), c.f.Desc.Name...), c.key...), ' ')
			b = strconv.AppendInt(append(appendFloat(b, r.v[ci]), ' '), r.t.Milliseconds(), 10)
			if _, err := bw.Write(append(b, '\n')); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
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
