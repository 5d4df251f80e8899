package harness

import (
	"encoding/json"
	"io"
	"time"
)

// Span is one timed call the harness made into a layer of the program.
// Start and End are offsets from the tracer's origin; Parent is the index
// of the enclosing span, or -1.
type Span struct {
	Name   string        `json:"name"`
	Layer  string        `json:"layer"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"`
	Run    string        `json:"run"`
}

// Tracer records spans in memory from the one goroutine that drives a
// workload; nesting follows call order. A nil *Tracer records nothing, so
// workloads bracket their calls unconditionally and the untraced pass pays
// one nil check per call.
type Tracer struct {
	origin time.Time
	run    string
	spans  []Span
	open   []int
}

// NewTracer starts a tracer; run labels every span (workload and seed).
func NewTracer(run string) *Tracer {
	return &Tracer{origin: time.Now(), run: run}
}

func nop() {}

// Begin opens a span and returns the function that closes it.
func (t *Tracer) Begin(layer, name string) (end func()) {
	if t == nil {
		return nop
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	i := len(t.spans)
	t.spans = append(t.spans, Span{Name: name, Layer: layer, Start: time.Since(t.origin), Parent: parent, Run: t.run})
	t.open = append(t.open, i)
	return func() {
		t.spans[i].End = time.Since(t.origin)
		t.open = t.open[:len(t.open)-1]
	}
}

// Spans returns the recorded spans in start order.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	return t.spans
}

// Total sums the duration of every span of the given layer and name.
func (t *Tracer) Total(layer, name string) time.Duration {
	var d time.Duration
	for _, s := range t.Spans() {
		if s.Layer == layer && s.Name == name {
			d += s.End - s.Start
		}
	}
	return d
}

// SelfByLayer charges each span's self time — its duration minus the
// duration of its direct children — to the span's layer.
func (t *Tracer) SelfByLayer() map[string]time.Duration {
	spans := t.Spans()
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range spans {
		out[s.Layer] += self[i]
	}
	return out
}

// WriteJSON writes the spans as one JSON array.
func (t *Tracer) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(t.Spans())
}
