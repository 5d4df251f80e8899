package core

import (
	"errors"
	"io"
	"runtime"
	"testing"
	"time"

	"spritefs/internal/cluster"
	"spritefs/internal/trace"
	"spritefs/internal/workload"
)

// captureAll runs run on a capture and returns what the capture streamed.
func captureAll(t *testing.T, c *capture, run func()) []trace.Record {
	t.Helper()
	c.start(run)
	recs, err := trace.Collect(c)
	c.stop()
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// firstDiff is the index of the first record at which a and b differ, or
// -1 when they are equal.
func firstDiff(a, b []trace.Record) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

// TestCaptureIsMerge holds the capture to the merge it replaces: for every
// trace at a short horizon, what a traced run streams is record for record
// trace.Merge of the same run's per-server streams. The run's emission is
// then streamed again a record per batch, where a batch that could end
// inside an instant would split every instant of two or more records.
//
// The runs must exercise both halves of Merge's rule — an instant whose
// records were emitted out of server order, and a scrubbed backup record —
// so that a capture without the reorder, without the scrub, or with
// batches ending mid-instant fails here.
func TestCaptureIsMerge(t *testing.T) {
	const hours = 0.5
	dur := time.Duration(hours * float64(time.Hour))
	reordered, scrubbed := 0, 0
	for n := 1; n <= 8; n++ {
		cfg := cluster.DefaultConfig(scaleParams(workload.TraceParams(n), 0.5))
		cfg.SamplePeriod = 0
		ref := cluster.New(cfg)
		ref.Run(dur)
		want, err := trace.Collect(trace.Merge(ref.PerServerStreams()...))
		if err != nil {
			t.Fatal(err)
		}

		var emitted []trace.Record
		c := newCapture(traceBatch)
		cfg.TraceSink = func(r trace.Record) {
			emitted = append(emitted, r)
			c.emit(r)
		}
		cl := cluster.New(cfg)
		got := captureAll(t, c, func() { cl.Run(dur) })
		if i := firstDiff(got, want); i >= 0 {
			t.Errorf("trace %d: the capture's %d records first differ from Merge's %d at record %d", n, len(got), len(want), i)
		}
		one := newCapture(1)
		got = captureAll(t, one, func() {
			for _, r := range emitted {
				one.emit(r)
			}
		})
		if i := firstDiff(got, want); i >= 0 {
			t.Errorf("trace %d, a record per batch: the capture first differs from Merge at record %d", n, i)
		}

		// Count what the capture had to undo: scrubbed records, and
		// records emitted after a later server's at the same instant.
		var at time.Duration
		var top int16 // the highest server emitted at instant at
		for i := range emitted {
			r := &emitted[i]
			if r.Flags&trace.FlagSelfTrace != 0 {
				scrubbed++
				continue
			}
			b := r.Server
			switch {
			case r.Time != at:
				at, top = r.Time, b
			case b < top:
				reordered++
			default:
				top = b
			}
		}
	}
	t.Logf("%d records reordered within an instant, %d scrubbed", reordered, scrubbed)
	if reordered == 0 || scrubbed == 0 {
		t.Errorf("%d records reordered within an instant and %d scrubbed: the runs no longer exercise both halves of Merge's rule", reordered, scrubbed)
	}
}

// settledGoroutines waits, up to a second, for the goroutine count to fall
// to at most want, and returns the count it saw last. A goroutine that has
// signalled its waiter may still be on its way out.
func settledGoroutines(want int) int {
	deadline := time.Now().Add(time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= want || time.Now().After(deadline) {
			return n
		}
		runtime.Gosched()
	}
}

// TestStreamingLeavesNoGoroutine: RunTrace waits for the run and the
// consistency simulations it starts, and AnalyzeTrace over a stream that
// fails starts none that outlive it.
func TestStreamingLeavesNoGoroutine(t *testing.T) {
	before := runtime.NumGoroutine()
	if _, err := RunTrace(1, quickOpts); err != nil {
		t.Fatal(err)
	}
	if n := settledGoroutines(before); n > before {
		t.Errorf("RunTrace left %d goroutines behind", n-before)
	}
	boom := errors.New("boom")
	if _, err := AnalyzeTrace(0, 0, errStream{trace.NewSliceStream(make([]trace.Record, 3)), boom}); !errors.Is(err, boom) {
		t.Fatalf("AnalyzeTrace error = %v, want the stream's", err)
	}
	if n := settledGoroutines(before); n > before {
		t.Errorf("AnalyzeTrace over a failing stream left %d goroutines behind", n-before)
	}
}

// TestCaptureRecyclesBatches: however long the run, no more batches
// circulate than the queue, the producer and the consumer hold at once.
func TestCaptureRecyclesBatches(t *testing.T) {
	c := newCapture(4)
	c.start(func() {
		for i := 0; i < 10000; i++ {
			c.emit(trace.Record{Time: time.Duration(i)})
		}
	})
	batches := map[*trace.Record]bool{} // by backing array
	for {
		if _, err := c.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		batches[&c.out[0]] = true
	}
	c.stop()
	if len(batches) > traceQueue+2 {
		t.Errorf("the run handed over %d distinct batches, want at most %d", len(batches), traceQueue+2)
	}
}

// TestCaptureStopsEarly: a consumer that stops reading mid-run lets the
// run finish, discarding the rest of its records; stop waits for it.
func TestCaptureStopsEarly(t *testing.T) {
	before := runtime.NumGoroutine()
	c := newCapture(1)
	emitted := 0
	c.start(func() {
		for i := 0; i < 10*traceQueue; i++ {
			c.emit(trace.Record{Time: time.Duration(i), Server: int16(i % 2)})
			emitted++
		}
	})
	if _, err := c.Next(); err != nil {
		t.Fatal(err)
	}
	c.stop()
	if emitted != 10*traceQueue {
		t.Errorf("the run emitted %d records before stop returned, want all %d", emitted, 10*traceQueue)
	}
	if n := settledGoroutines(before); n > before {
		t.Errorf("a stopped capture left %d goroutines behind", n-before)
	}
}

// TestCaptureReraisesRunPanic: a run that panics ends the stream with an
// error, and stop raises the panic on the consumer's goroutine; so does a
// record stamped before the instant the capture is at.
func TestCaptureReraisesRunPanic(t *testing.T) {
	for name, run := range map[string]func(c *capture){
		"panic": func(*capture) { panic("boom") },
		"time goes back": func(c *capture) {
			c.emit(trace.Record{Time: 2})
			c.emit(trace.Record{Time: 1})
		},
	} {
		c := newCapture(traceBatch)
		c.start(func() { run(c) })
		if _, err := trace.Collect(c); !errors.Is(err, errRunPanicked) {
			t.Errorf("%s: stream error = %v, want errRunPanicked", name, err)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: stop did not re-raise the run's panic", name)
				}
			}()
			c.stop()
		}()
	}
}
