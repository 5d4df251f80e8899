package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"spritefs/internal/cluster"
	"spritefs/internal/trace"
	"spritefs/internal/workload"
)

// TestFlagValidation pins fail-fast on contradictory flag combinations.
func TestFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string // substring of the expected error
	}{
		// Without -metrics-out or -report tables the samples reach no output.
		{"sample without out", []string{"-metrics-sample", "10s", "-trace", "x"}, "it needs -metrics-out or -report tables"},
		{"nonpositive metrics sample", []string{"-metrics-out", "-", "-metrics-sample", "-5s", "-trace", "x"}, "-metrics-sample must be positive"},
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
		// NaN and +Inf pass a "< 0" check and replay as fast as possible;
		// dropping the finiteness check lets both through to the trace open.
		{"NaN speed", []string{"-speed", "NaN", "-trace", "x"}, "-speed must be a finite number"},
		{"infinite speed", []string{"-speed", "+Inf", "-trace", "x"}, "-speed must be a finite number"},
		// The engine scrubs negative clients before the filter, so -1 would
		// apply nothing; dropping the id check lets it through.
		{"negative client id", []string{"-clients", "3,-1", "-trace", "x"}, "-clients must be at least 0"},
		{"negative poll window", []string{"-mode", "poll", "-poll", "-3s", "-trace", "x"}, "-poll must be at least 0"},
		{"zero servers", []string{"-servers", "0", "-trace", "x"}, "-servers must be at least 1"},
		{"negative servers", []string{"-servers", "-2", "-trace", "x"}, "-servers must be at least 1"},
		{"no traces", []string{}, "no trace files"},
		// A replay draws no random number, so -seed selected nothing.
		{"retired seed flag", []string{"-seed", "7", "-trace", "x"}, "not defined: -seed"},
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
		{"-report", "tables", "-metrics-sample", "1m"},
		// Zero keeps the meaning each flag's help gives it.
		{"-cache", "0", "-wb", "0", "-prefetch", "0", "-speed", "0", "-mode", "poll", "-poll", "0", "-servers", "1"},
	} {
		err := run(append([]string{"-trace", "/nonexistent"}, args...), io.Discard)
		if err == nil || !strings.Contains(err.Error(), "nonexistent") {
			t.Errorf("run(%v): want trace-open error, got %v", args, err)
		}
	}
}

var (
	smallOnce sync.Once
	smallRecs []trace.Record
)

// smallTrace captures a small live trace (the shape of internal/replay's
// golden trace) once per test binary, writes it in the binary format under
// t's temporary directory and returns the file's path and its records.
func smallTrace(t *testing.T) (string, []trace.Record) {
	t.Helper()
	smallOnce.Do(func() {
		p := workload.Default(1)
		p.NumClients, p.DailyUsers, p.OccasionalUsers = 8, 6, 4
		p.SessionMedian, p.GapMedian, p.ThinkMean = 8*time.Minute, 10*time.Minute, 5*time.Second
		cfg := cluster.DefaultConfig(p)
		cfg.NumServers = 2
		cfg.SamplePeriod = 0
		cfg.FixedCachePages = 2048
		c := cluster.New(cfg)
		c.Run(2 * time.Hour)
		recs, err := trace.Collect(trace.Merge(c.PerServerStreams()...))
		if err != nil {
			panic(err)
		}
		smallRecs = recs
	})
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := range smallRecs {
		if err := w.Write(&smallRecs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "golden.trace")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, smallRecs
}

// TestReportTablesPrintsTheSection5Tables replays the small trace with
// -report tables and checks the Section 5 tables come out with the paper's
// column beside the replayed one, followed by the detail table of every
// other cell.
func TestReportTablesPrintsTheSection5Tables(t *testing.T) {
	path, _ := smallTrace(t)
	var out strings.Builder
	if err := run([]string{"-trace", path, "-servers", "2", "-cache", "2048", "-speed", "0", "-report", "tables"}, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"Table 4. Client cache sizes", "Table 5. Raw traffic sources", "Table 6. Client cache effectiveness",
		"Table 7. Server traffic", "Table 8. Cache block replacement", "Table 9. Dirty block cleaning",
		"Table 10 (server counters cross-check)", "Network utilization: ", "Server caches: ",
		"Section 5 detail", "recovery.retransmits", "storage.disk_busy_s",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("-report tables output lacks %q", want)
		}
	}
	// The paper's column: Table 6's published read-miss ratios, all and migrated.
	if !regexp.MustCompile(`(?m)^file read misses +\S+ +41\.4 +\S+ +22\.2$`).MatchString(got) {
		t.Errorf("Table 6 lacks the paper's column:\n%s", got)
	}
}

// TestClientsReplaysThatSubset runs -clients 0,3 end to end and checks the
// replay applies exactly the records those two workstations issued: a flag
// parser that kept only the first id, or a filter that was never installed,
// applies a different count.
func TestClientsReplaysThatSubset(t *testing.T) {
	path, recs := smallTrace(t)
	var want int
	for _, r := range recs {
		if r.Client == 0 || r.Client == 3 {
			want++
		}
	}
	var out strings.Builder
	if err := run([]string{"-trace", path, "-servers", "2", "-cache", "2048", "-speed", "0", "-clients", "0,3"}, &out); err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`(?m)^applied +(\d+)$`).FindStringSubmatch(out.String())
	if m == nil {
		t.Fatalf("summary has no applied row:\n%s", out.String())
	}
	if got, _ := strconv.Atoi(m[1]); got != want || want == 0 || want == len(recs) {
		t.Errorf("-clients 0,3 applied %d records, want %d of %d", got, want, len(recs))
	}
}

// TestMetricsSampleFillsTable4 replays the small trace at recorded speed
// with -report tables: Table 4 is computed from the sampled series, so
// without -metrics-sample its average cache size reads 0 and with it the
// replayed workstations' caches show.
func TestMetricsSampleFillsTable4(t *testing.T) {
	path, _ := smallTrace(t)
	avg := regexp.MustCompile(`(?m)^avg cache size \(KB\) +(\d+) `)
	for _, tc := range []struct {
		extra   []string
		nonZero bool
	}{
		{nil, false},
		{[]string{"-metrics-sample", "1m"}, true},
	} {
		var out strings.Builder
		args := append([]string{"-trace", path, "-servers", "2", "-cache", "2048", "-report", "tables"}, tc.extra...)
		if err := run(args, &out); err != nil {
			t.Fatal(err)
		}
		m := avg.FindStringSubmatch(out.String())
		if m == nil {
			t.Fatalf("run(%v): Table 4 has no average cache size row:\n%s", args, out.String())
		}
		if got := m[1] != "0"; got != tc.nonZero {
			t.Errorf("run(%v): t4.size.avg_kb = %s, want non-zero = %v", args, m[1], tc.nonZero)
		}
	}
}
