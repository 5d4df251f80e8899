package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFlagValidation pins fail-fast on contradictory flag combinations.
func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring of the expected error
	}{
		{"sample without out", []string{"-metrics-sample", "10s", "-trace", "x"}, "-metrics-out"},
		{"format without out", []string{"-metrics-format", "tsv", "-trace", "x"}, "-metrics-out"},
		{"bad format", []string{"-metrics-out", "-", "-metrics-format", "xml", "-trace", "x"}, "xml"},
		{"bad report", []string{"-report", "yaml", "-trace", "x"}, "yaml"},
		{"workers without sweep", []string{"-workers", "4", "-trace", "x"}, "-sweep"},
		{"zero workers", []string{"-workers", "0", "-sweep", "cache=512", "-trace", "x"}, "at least 1"},
		{"poll without poll mode", []string{"-poll", "5s", "-trace", "x"}, "-mode poll"},
		{"negative cache", []string{"-cache", "-5", "-trace", "x"}, "-cache must be at least 0"},
		{"negative writeback delay", []string{"-wb", "-5s", "-trace", "x"}, "-wb must be at least 0"},
		{"negative prefetch", []string{"-prefetch", "-2", "-trace", "x"}, "-prefetch must be at least 0"},
		{"negative speed", []string{"-speed", "-1", "-trace", "x"}, "-speed must be at least 0"},
		{"negative poll window", []string{"-mode", "poll", "-poll", "-3s", "-trace", "x"}, "-poll must be at least 0"},
		{"zero servers", []string{"-servers", "0", "-trace", "x"}, "-servers must be at least 1"},
		{"negative servers", []string{"-servers", "-2", "-trace", "x"}, "-servers must be at least 1"},
		{"no traces", []string{}, "no trace files"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.args, io.Discard)
			if err == nil {
				t.Fatalf("run(%v) succeeded, want error containing %q", tc.args, tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Errorf("run(%v) error %q, want substring %q", tc.args, err, tc.want)
			}
		})
	}
}

// TestProfileFlagsFailFast pins that an unwritable profile path is
// rejected before any trace is opened, and that a good path produces a
// profile file even when the replay itself fails.
func TestProfileFlagsFailFast(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "no/such/dir/out.pprof")
	for _, flag := range []string{"-cpuprofile", "-memprofile"} {
		err := run([]string{flag, bad, "-trace", "/nonexistent"}, io.Discard)
		if err == nil || !strings.Contains(err.Error(), flag) {
			t.Errorf("run(%s=%s) error %v, want %s failure", flag, bad, err, flag)
		}
	}
	cpu := filepath.Join(t.TempDir(), "cpu.pprof")
	err := run([]string{"-cpuprofile", cpu, "-trace", "/nonexistent"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "nonexistent") {
		t.Fatalf("want trace-open error, got %v", err)
	}
	if st, serr := os.Stat(cpu); serr != nil || st.Size() == 0 {
		t.Errorf("CPU profile not written on the error path: %v", serr)
	}
}

// TestValidCombosPassValidation checks validation does not reject the
// documented invocations (they fail later, at trace open).
func TestValidCombosPassValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-sweep", "cache=512", "-workers", "2", "-metrics-out", "-", "-metrics-sample", "10s", "-mode", "poll", "-poll", "5s"},
		// Zero keeps the meaning each flag's help gives it.
		{"-cache", "0", "-wb", "0", "-prefetch", "0", "-speed", "0", "-mode", "poll", "-poll", "0", "-servers", "1"},
	} {
		err := run(append([]string{"-trace", "/nonexistent"}, args...), io.Discard)
		if err == nil || !strings.Contains(err.Error(), "nonexistent") {
			t.Errorf("run(%v): want trace-open error, got %v", args, err)
		}
	}
}
