package main

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// TestDefaultTables runs the counter study at a tiny horizon: every
// Section 5 table is rendered, and — the study being deterministic per
// seed — a second run prints the same bytes.
func TestDefaultTables(t *testing.T) {
	args := []string{"-days", "0.1", "-scale", "0.25"}
	var a, b bytes.Buffer
	if err := run(args, &a); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Table 4.", "Table 5.", "Table 6.", "Table 7.", "Table 8.", "Table 9."} {
		if !strings.Contains(a.String(), want) {
			t.Errorf("default output lacks %q", want)
		}
	}
	if err := run(args, &b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("two runs with the same seed printed different tables")
	}
}

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

// TestBadFlagsRejected: a value the study would replace with its default,
// one that yields tables of zeros, and a flag the chosen mode ignores are
// each an error that names the flag, and nothing is printed.
func TestBadFlagsRejected(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string // the error names this
	}{
		{[]string{"-days", "0"}, "-days"},
		{[]string{"-days", "-1"}, "-days"},
		{[]string{"-whatif", "delay", "-days", "-1"}, "-days"},
		{[]string{"-scale", "-2", "-days", "0.01"}, "-scale"},
		{[]string{"-scale", "0", "-days", "0.01"}, "-scale"},
		{[]string{"-whatif", "delay", "-scale", "2", "-days", "0.01"}, "-scale"},
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
