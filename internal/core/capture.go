package core

import (
	"cmp"
	"errors"
	"io"
	"slices"

	"spritefs/internal/trace"
)

// traceBatch is how many records the capture hands to the analysis at a
// time (a batch may run over to finish an instant).
const traceBatch = 4096

// traceQueue is how many full batches may wait for the analysis. A few
// absorb the jitter between the two goroutines; more would only hold
// memory while the analysis falls behind.
const traceQueue = 8

// capture streams a running cluster's trace, as its TraceSink, to an
// analysis on another goroutine, in exactly the order
// trace.Merge(cl.PerServerStreams()...) would yield it. The cluster emits
// records in time order, each naming one of its servers, and Merge's
// output is a stable sort of that by (time, server), backup noise
// scrubbed; so the capture scrubs, and reorders each instant's records by
// server before they leave. A batch
// ends only where the time changes. Batches are recycled through a free
// list, so a long run allocates none in its steady state.
//
// The producer side (emit, and start's goroutine) and the consumer side
// (Next, stop) each keep their own fields; they share only the channels.
type capture struct {
	batch int

	full chan []trace.Record // filled batches in order; closed when the run ends
	free chan []trace.Record // emptied batches back to the producer

	// The producer's.
	cur     []trace.Record // the batch being filled
	instant int            // cur[instant:] are the records of the latest instant
	// panicked is what the run panicked with; the consumer reads it only
	// once full is closed.
	panicked any

	// The consumer's.
	out []trace.Record // the batch being read
	pos int
}

// errRunPanicked ends the stream of a run that panicked; stop re-raises
// the panic itself.
var errRunPanicked = errors.New("core: the traced run panicked")

// newCapture returns a capture that hands records over batch at a time.
func newCapture(batch int) *capture {
	return &capture{
		batch: batch,
		full:  make(chan []trace.Record, traceQueue),
		// Room for every batch in circulation: the queued ones, the one
		// being filled and the one being read.
		free: make(chan []trace.Record, traceQueue+2),
		cur:  make([]trace.Record, 0, batch),
	}
}

// emit is the cluster's TraceSink.
func (c *capture) emit(r trace.Record) {
	if r.Flags&trace.FlagSelfTrace != 0 {
		return
	}
	if len(c.cur) > c.instant {
		switch t := c.cur[c.instant].Time; {
		case r.Time < t:
			panic("core: a trace record went back in time")
		case r.Time > t:
			c.endInstant()
			if len(c.cur) >= c.batch {
				c.send()
			}
			c.instant = len(c.cur)
		}
	}
	c.cur = append(c.cur, r)
}

// endInstant puts the latest instant's records in server order.
func (c *capture) endInstant() {
	if run := c.cur[c.instant:]; len(run) > 1 {
		slices.SortStableFunc(run, func(a, b trace.Record) int {
			return cmp.Compare(a.Server, b.Server)
		})
	}
}

// send hands the current batch over and starts the next.
func (c *capture) send() {
	c.full <- c.cur
	select {
	case b := <-c.free:
		c.cur = b[:0]
	default:
		c.cur = make([]trace.Record, 0, c.batch)
	}
	c.instant = 0
}

// start runs run, which drives the cluster whose sink is emit, on a
// goroutine. The stream ends when run returns.
func (c *capture) start(run func()) {
	go func() {
		defer func() {
			if c.panicked = recover(); c.panicked == nil && len(c.cur) > 0 {
				c.endInstant()
				c.send()
			}
			close(c.full)
		}()
		run()
	}()
}

// Next implements trace.Stream on the consumer's side.
func (c *capture) Next() (trace.Record, error) {
	for c.pos == len(c.out) {
		if c.out != nil {
			c.free <- c.out // never blocks: free has room for every batch
		}
		b, ok := <-c.full
		if !ok {
			c.out, c.pos = nil, 0
			if c.panicked != nil {
				return trace.Record{}, errRunPanicked
			}
			return trace.Record{}, io.EOF
		}
		c.out, c.pos = b, 0
	}
	c.pos++
	return c.out[c.pos-1], nil
}

// stop ends the consumer's side: it discards what a run still going
// emits, returns once the run has ended, and re-raises a panic of the run.
func (c *capture) stop() {
	for b := range c.full {
		c.free <- b
	}
	if c.panicked != nil {
		panic(c.panicked)
	}
}
