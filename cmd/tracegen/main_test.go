package main

import (
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"spritefs/internal/trace"
)

func TestTracegenWritesReadableTraces(t *testing.T) {
	dir := t.TempDir()
	if err := run(1, 0.02, dir, 2, io.Discard); err != nil { // ~72 simulated seconds
		t.Fatal(err)
	}
	var total int
	for srv := 0; srv < 2; srv++ {
		path := filepath.Join(dir, "trace1.srv"+string(rune('0'+srv)))
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		r, err := trace.NewReader(f)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		recs, err := trace.Collect(r)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		for i := range recs {
			if recs[i].Server != int16(srv) {
				t.Fatalf("%s holds record for server %d", path, recs[i].Server)
			}
		}
		total += len(recs)
	}
	if total == 0 {
		t.Fatal("no records written")
	}
}

func TestTracegenRejectsBadTrace(t *testing.T) {
	if err := run(0, 1, t.TempDir(), 1, io.Discard); err == nil {
		t.Error("trace 0 accepted")
	}
	if err := run(9, 1, t.TempDir(), 1, io.Discard); err == nil {
		t.Error("trace 9 accepted")
	}
}

// TestTracegenRejectsBadFlags: a horizon that simulates nothing (NaN
// included, which passes "<= 0") and a cluster with no server to write a
// file for are errors naming the flag, raised before any file is created.
func TestTracegenRejectsBadFlags(t *testing.T) {
	for _, tc := range []struct {
		hours   float64
		servers int
		want    string
	}{
		{-1, 4, "-hours"},
		{0, 4, "-hours"},
		{math.NaN(), 4, "-hours"},
		{0.02, 0, "-servers"},
		{0.02, -1, "-servers"},
	} {
		dir := t.TempDir()
		err := run(1, tc.hours, dir, tc.servers, io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(hours=%g, servers=%d) error %v, want one naming %s", tc.hours, tc.servers, err, tc.want)
		}
		if left, _ := os.ReadDir(dir); len(left) != 0 {
			t.Errorf("run(hours=%g, servers=%d) left %d files behind its error", tc.hours, tc.servers, len(left))
		}
	}
}

// TestTracegenReportsTheHorizonGiven drives a fractional -hours end to
// end: the closing line states the horizon that was simulated, not its
// rounding to whole hours.
func TestTracegenReportsTheHorizonGiven(t *testing.T) {
	var out strings.Builder
	if err := run(1, 0.02, t.TempDir(), 1, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "trace 1: 0.02 simulated hours, ") {
		t.Errorf("closing line does not say 0.02 simulated hours:\n%s", out.String())
	}
}
