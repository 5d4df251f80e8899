package main

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// TestWhatIfDelay runs one what-if end to end: one row per swept delay.
func TestWhatIfDelay(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-whatif", "delay", "-days", "0.01"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	if !strings.Contains(got, "What-if: writeback delay sweep") {
		t.Fatalf("missing sweep table:\n%s", got)
	}
	for _, row := range []string{"5s", "30s", "2m0s", "10m0s"} {
		if !strings.Contains(got, "\n"+row+" ") {
			t.Errorf("no row for delay %s:\n%s", row, got)
		}
	}
}

func TestUnknownWhatIfRejected(t *testing.T) {
	err := run([]string{"-whatif", "teleport"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "teleport") {
		t.Errorf("run(-whatif teleport) error %v, want it to name the unknown what-if", err)
	}
}

// TestBadFlagsRejected: a horizon that yields tables of zeros and a run
// with no what-if are each an error that names what to change, and nothing
// is printed. The no-what-if row catches a default mode brought back: it
// would print the Section 5 tables instead of naming experiments.
func TestBadFlagsRejected(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // the error names this
	}{
		{[]string{"-whatif", "delay", "-days", "0"}, "-days"},
		{[]string{"-whatif", "delay", "-days", "-1"}, "-days"},
		{[]string{"-days", "0.01"}, "experiments -exp section5"},
		{nil, "-whatif is required"},
	} {
		var out bytes.Buffer
		err := run(tc.args, &out)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v) error %v, want one naming %s", tc.args, err, tc.want)
		}
		if out.Len() != 0 {
			t.Errorf("run(%v) printed %d bytes beside its error", tc.args, out.Len())
		}
	}
}
