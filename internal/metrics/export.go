package metrics

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
)

// PrometheusContentType is the Content-Type a scrape endpoint must declare
// when serving WritePrometheus output (text exposition format version
// 0.0.4). The live HTTP frontend sets it on /metrics responses.
const PrometheusContentType = "text/plain; version=0.0.4; charset=utf-8"

// chunkSize is how many bytes an export gathers before it writes them:
// an export makes one Write per chunk, not one per line, and holds one
// chunk whatever the registry's size.
const chunkSize = 64 << 10

// appendFloat appends v as the shortest decimal that round-trips, so
// identical values produce identical bytes everywhere.
func appendFloat(b []byte, v float64) []byte {
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// export writes every family's head (when head is not nil) followed by
// one line per point, in Snapshot's order, after what bw already holds.
// Each line is appended in bw's free space; the first Write error ends
// the walk.
func (r *Registry) export(bw *bufio.Writer, head func(b []byte, d *Desc) []byte,
	line func(b []byte, p *Point, labels []byte) []byte) error {
	var ps [len(summarySuffixes)]Point
	err := r.walk(func(e *exportFamily) error {
		if head != nil {
			bw.Write(head(bw.AvailableBuffer(), e.d))
		}
		for k := range e.insts {
			labels := e.labels(k)
			for j := range e.points(k, &ps) {
				if _, err := bw.Write(line(bw.AvailableBuffer(), &ps[j], labels)); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format: one # HELP / # TYPE pair per family followed by its instances
// sorted by labels. Summaries render as untyped expanded points (the
// _count/_sum/... suffixes carry the distribution).
func (r *Registry) WritePrometheus(w io.Writer) error {
	return r.export(bufio.NewWriterSize(w, chunkSize), appendPromHead, func(b []byte, p *Point, labels []byte) []byte {
		b = append(append(append(b, p.Name...), labels...), ' ')
		return append(p.appendValue(b), '\n')
	})
}

// appendPromHead appends a family's # HELP and # TYPE lines.
func appendPromHead(b []byte, d *Desc) []byte {
	help, typ := "(summary; see docs/METRICS.md)", "untyped"
	if d.Kind != Summary {
		help, typ = "(unit: "+d.Unit+"; see docs/METRICS.md)", "gauge"
		if d.Kind == Counter {
			typ = "counter"
		}
	}
	b = append(append(append(append(b, "# HELP "...), d.Name...), ' '), help...)
	b = append(append(append(append(b, "\n# TYPE "...), d.Name...), ' '), typ...)
	return append(b, '\n')
}

// WriteTSV renders the registry as one "name labels unit value" row per
// point, tab-separated with a header line. Empty label sets render as "-".
func (r *Registry) WriteTSV(w io.Writer) error {
	bw := bufio.NewWriterSize(w, chunkSize)
	bw.WriteString("metric\tlabels\tunit\tvalue\n")
	return r.export(bw, nil, func(b []byte, p *Point, labels []byte) []byte {
		if len(labels) == 0 {
			labels = dash
		}
		b = append(append(append(append(b, p.Name...), '\t'), labels...), '\t')
		b = append(append(b, p.Unit...), '\t')
		return append(p.appendValue(b), '\n')
	})
}

var dash = []byte("-")

// WriteJSONL renders the registry as one JSON object per line. The JSON
// is hand-assembled so integer counters stay exact and key order is
// fixed.
func (r *Registry) WriteJSONL(w io.Writer) error {
	return r.export(bufio.NewWriterSize(w, chunkSize), nil, func(b []byte, p *Point, labels []byte) []byte {
		b = strconv.AppendQuote(append(b, `{"name":`...), p.Name)
		b = strconv.AppendQuote(append(b, `,"labels":`...), string(labels))
		b = strconv.AppendQuote(append(b, `,"unit":`...), p.Unit)
		return append(p.appendValue(append(b, `,"value":`...)), '}', '\n')
	})
}

// Dump renders the registry in the named format: "prom", "tsv" or "jsonl".
func (r *Registry) Dump(w io.Writer, format string) error {
	switch format {
	case "prom", "prometheus":
		return r.WritePrometheus(w)
	case "tsv":
		return r.WriteTSV(w)
	case "jsonl", "json":
		return r.WriteJSONL(w)
	default:
		return fmt.Errorf("metrics: unknown dump format %q (prom, tsv, jsonl)", format)
	}
}
