package main

import (
	"compress/gzip"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestValidateFlags pins fail-fast behavior for unknown experiments, flags
// the chosen experiment would silently ignore, and negative or non-finite
// numbers the studies would silently replace by their defaults or turn into
// an empty run.
func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name string
		exp  string
		set  []string
		num  map[string]float64 // values of the numeric flags (absent = 0)
		want string             // "" = valid; otherwise a substring of the error
	}{
		{"default all", "all", nil, nil, ""},
		{"unknown exp", "bogus", nil, nil, "unknown experiment"},
		{"traces for section5", "section5", []string{"traces"}, nil, "-traces does not apply"},
		{"days for scale", "scale", []string{"days"}, nil, "-days does not apply"},
		{"shards for claims", "claims", []string{"shards"}, nil, "-shards does not apply"},
		{"scale flags ok", "scale", []string{"shards", "sites", "lean", "clients", "hours", "workers"}, nil, ""},
		{"sites for section4", "section4", []string{"sites"}, nil, "-sites does not apply"},
		{"negative clients", "scale", []string{"clients"}, map[string]float64{"clients": -5}, "-clients -5 is negative"},
		{"negative workers", "scale", []string{"workers"}, map[string]float64{"workers": -3}, "-workers -3 is negative"},
		{"negative hours", "scale", []string{"hours"}, map[string]float64{"hours": -1}, "-hours -1 is negative"},
		{"negative days", "section5", []string{"days"}, map[string]float64{"days": -0.5}, "-days -0.5 is negative"},
		{"negative scale", "section4", []string{"scale"}, map[string]float64{"scale": -2}, "-scale -2 is negative"},
		{"NaN hours", "section4", []string{"hours"}, map[string]float64{"hours": math.NaN()}, "-hours NaN is not a finite number"},
		{"infinite days", "section5", []string{"days"}, map[string]float64{"days": math.Inf(1)}, "-days +Inf is not a finite number"},
		{"NaN scale", "section5", []string{"scale"}, map[string]float64{"scale": math.NaN()}, "-scale NaN is not a finite number"},
		{"zero means default", "scale", []string{"clients", "workers", "hours"}, nil, ""},
		{"scale above 1", "section5", []string{"scale"}, map[string]float64{"scale": 3}, "-scale 3 is above 1"},
		{"full scale ok", "section4", []string{"scale"}, map[string]float64{"scale": 1}, ""},
		{"claims flags ok", "claims", []string{"hours", "scale", "seed"}, map[string]float64{"hours": 2, "scale": 0.5}, ""},
		{"days for claims", "claims", []string{"days"}, nil, "-days does not apply"},
		{"traces for claims", "claims", []string{"traces"}, nil, "-traces does not apply"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			set := map[string]bool{}
			for _, f := range tc.set {
				set[f] = true
			}
			err := validateFlags(tc.exp, set, tc.num)
			if tc.want == "" {
				if err != nil {
					t.Errorf("validateFlags(%q, %v) = %v, want nil", tc.exp, tc.set, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("validateFlags(%q, %v) = %v, want substring %q", tc.exp, tc.set, err, tc.want)
			}
		})
	}
}

// TestProfileFlagsApplyEverywhere pins that -cpuprofile/-memprofile,
// like -seed, are valid for every experiment (they are deliberately
// absent from flagScope).
func TestProfileFlagsApplyEverywhere(t *testing.T) {
	set := map[string]bool{"cpuprofile": true, "memprofile": true}
	for _, exp := range validExps {
		if err := validateFlags(exp, set, nil); err != nil {
			t.Errorf("profile flags rejected for -exp %s: %v", exp, err)
		}
	}
}

// TestParseCounts pins the -shards/-sites list parser: its errors name
// the flag they are about.
func TestParseCounts(t *testing.T) {
	if got, err := parseCounts("shards", "1, 2,8", 0); err != nil || len(got) != 3 || got[2] != 8 {
		t.Errorf("parseCounts(shards, \"1, 2,8\") = %v, %v", got, err)
	}
	for _, flag := range []string{"shards", "sites"} {
		for _, bad := range []string{"", "0", "x", "-1"} {
			if _, err := parseCounts(flag, bad, 0); err == nil || !strings.Contains(err.Error(), "-"+flag) {
				t.Errorf("parseCounts(%s, %q) = %v, want an error naming -%s", flag, bad, err, flag)
			}
		}
	}
}

// TestParseTraces pins -traces through the same parser, bounded to the
// eight traces.
func TestParseTraces(t *testing.T) {
	got, err := parseCounts("traces", "1, 3,8", 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 3 || got[2] != 8 {
		t.Errorf("parsed %v", got)
	}
	for _, bad := range []string{"", "0", "9", "x", "1,,y"} {
		if _, err := parseCounts("traces", bad, 8); err == nil || !strings.Contains(err.Error(), "-traces") {
			t.Errorf("parseCounts(traces, %q) = %v, want an error naming -traces", bad, err)
		}
	}
	// Trailing commas and spaces are tolerated.
	got, err = parseCounts("traces", "2,", 8)
	if err != nil || len(got) != 1 || got[0] != 2 {
		t.Errorf("trailing comma: %v %v", got, err)
	}
}

// runTool is one whole invocation of the tool, as main would make it.
func runTool(args ...string) (stdout, stderr string, err error) {
	var out, errw strings.Builder
	err = run(args, &out, &errw)
	return out.String(), errw.String(), err
}

// TestScaleStudyInvocation drives `-exp scale` end to end: the progress
// line names the community the tables below it report, also when
// -clients is left to the study's default, and -sites and -lean reach the
// sweep.
func TestScaleStudyInvocation(t *testing.T) {
	stdout, stderr, err := runTool("-exp", "scale", "-clients", "80", "-shards", "2,4", "-sites", "1,2", "-lean", "-hours", "0.01")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stderr, "running scale study (80 clients, shards 2,4, sites 1,2)") {
		t.Errorf("progress line does not name 80 clients over shards 2,4 and sites 1,2:\n%s", stderr)
	}
	for _, want := range []string{"Throughput vs shards and sites: 80 clients", "Executor wall-clock", "\n4           2 "} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout)
		}
	}

	stdout, stderr, err = runTool("-exp", "scale", "-shards", "1", "-hours", "0.001")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stderr, "(1000 clients, shards 1, sites 1)") || !strings.Contains(stdout, "1000 clients") {
		t.Errorf("default community not named on both streams:\nstderr: %s\nstdout: %s", stderr, stdout)
	}
}

// TestClaimsInvocation drives `-exp claims` end to end at a short horizon:
// every claim prints with a verdict, and the flags the claims do not read
// are usage errors before anything runs.
func TestClaimsInvocation(t *testing.T) {
	stdout, stderr, err := runTool("-exp", "claims", "-hours", "0.5", "-scale", "0.25", "-seed", "7")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stderr, "running claims (0.5h per point, scale 0.25)") {
		t.Errorf("progress line does not name the horizon and scale:\n%s", stderr)
	}
	ids := []string{"s5.3.local_disks", "s5.2.cache_floor", "s5.2.prefetch", "s6.longer_delay",
		"s5.5.live_polling", "s5.5.polling_cliff", "t6.migration_reuse", "s4.growth_x20", "s6.crash_loss", "s4.bursty"}
	for _, id := range ids {
		if !strings.Contains(stdout, "\n"+id+" (") {
			t.Errorf("no claim %s in the output:\n%s", id, stdout)
		}
	}
	if n := strings.Count(stdout, "\nverdict: "); n != len(ids) {
		t.Errorf("%d verdict lines for %d claims:\n%s", n, len(ids), stdout)
	}
	if !strings.Contains(stdout, "seed 7") {
		t.Errorf("the header does not name seed 7:\n%s", stdout)
	}
	for _, args := range [][]string{{"-exp", "claims", "-days", "1"}, {"-exp", "claims", "-traces", "1"}} {
		_, stderr, err := runTool(args...)
		if err == nil || !errors.As(err, &usageError{}) || !strings.Contains(err.Error(), args[2]) {
			t.Errorf("run(%v) = %v, want a usage error naming %s", args, err, args[2])
		}
		if strings.Contains(stderr, "running ") {
			t.Errorf("run(%v): a progress line before the usage error:\n%s", args, stderr)
		}
	}
}

// TestErrorsKeepTheirExitCodes pins the usage (exit 2) / run (exit 1)
// split main maps from run's error. A usage error comes before anything
// runs, so no progress line precedes it.
func TestErrorsKeepTheirExitCodes(t *testing.T) {
	cases := []struct {
		name  string
		args  []string
		usage bool
		want  string
	}{
		{"unknown flag", []string{"-bogus"}, true, "bogus"},
		{"unknown experiment", []string{"-exp", "bogus"}, true, "unknown experiment"},
		{"bad shard list", []string{"-exp", "scale", "-shards", "x"}, true, "-shards"},
		{"zero sites", []string{"-exp", "scale", "-sites", "0"}, true, "-sites"},
		{"bad profile path", []string{"-exp", "scale", "-cpuprofile", t.TempDir() + "/no/such/dir/cpu"}, true, "-cpuprofile"},
		{"bad trace list", []string{"-exp", "section4", "-traces", "9"}, true, "-traces"},
		{"scale above 1", []string{"-exp", "section5", "-days", "0.02", "-scale", "3"}, true, "-scale 3"},
		{"indivisible sites", []string{"-exp", "scale", "-shards", "8", "-sites", "3"}, true, "-sites 3 does not divide -shards 8"},
		// NaN passes "< 0" and "> 1", and a NaN or infinite horizon runs
		// nothing: each printed an all-zero table and exited 0.
		{"NaN hours", []string{"-exp", "section4", "-traces", "1", "-hours", "nan", "-scale", "0.1"}, true, "-hours NaN is not a finite number"},
		{"infinite days", []string{"-exp", "section5", "-days", "inf", "-scale", "0.1"}, true, "-days +Inf is not a finite number"},
		{"NaN scale", []string{"-exp", "section5", "-days", "0.01", "-scale", "nan"}, true, "-scale NaN is not a finite number"},
		{"retired fault study", []string{"-exp", "faults"}, true, "unknown experiment"},
		{"retired wanscale study", []string{"-exp", "wanscale"}, true, "unknown experiment"},
		{"retired faults flag", []string{"-faults", "server-crash:0@1h/30s"}, true, "-faults"},
		{"retired segments flag", []string{"-segments", "8"}, true, "-segments"},
		// -hours and -scale keep each retired invocation short on a tree
		// where it still ran.
		{"retired timeseries study", []string{"-exp", "timeseries", "-hours", "0.01", "-scale", "0.1"}, true, "unknown experiment \"timeseries\" (want one of all, section4, section5, claims, scale)"},
		{"retired workloads study", []string{"-exp", "workloads", "-hours", "0.01", "-scale", "0.05"}, true, "unknown experiment \"workloads\""},
		{"retired metrics out flag", []string{"-exp", "timeseries", "-hours", "0.01", "-scale", "0.1", "-metrics-out", os.DevNull}, true, "not defined: -metrics-out"},
		{"retired metrics format flag", []string{"-exp", "timeseries", "-hours", "0.01", "-scale", "0.1", "-metrics-format", "prom"}, true, "not defined: -metrics-format"},
		{"retired metrics sample flag", []string{"-exp", "timeseries", "-hours", "0.01", "-scale", "0.1", "-metrics-sample", "1m"}, true, "not defined: -metrics-sample"},
		{"retired sequential flag", []string{"-exp", "scale", "-clients", "80", "-shards", "2", "-hours", "0.001", "-sequential"}, true, "not defined: -sequential"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, stderr, err := runTool(tc.args...)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run(%v) = %v, want an error naming %q", tc.args, err, tc.want)
			}
			if got := errors.As(err, &usageError{}); got != tc.usage {
				t.Errorf("run(%v): usage error = %v, want %v (%v)", tc.args, got, tc.usage, err)
			}
			if tc.usage && strings.Contains(stderr, "running ") {
				t.Errorf("run(%v): usage error %v after a progress line:\n%s", tc.args, err, stderr)
			}
		})
	}
}

// TestProfileFlushedWhenRunFails: a run that ends in an error still goes
// through the deferred profile stop, so -cpuprofile leaves a complete
// gzip stream and the profiler is free for the next Start.
func TestProfileFlushedWhenRunFails(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	notDir := filepath.Join(dir, "file")
	if err := os.WriteFile(notDir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // the second Start fails if the first was never stopped
		// The CDF directory cannot be made under a regular file: the run
		// fails after the trace ran.
		_, _, err := runTool("-exp", "section4", "-traces", "1", "-hours", "0.01", "-scale", "0.1",
			"-cdfdir", filepath.Join(notDir, "cdf"), "-cpuprofile", cpu)
		if err == nil || errors.As(err, &usageError{}) || !strings.Contains(err.Error(), "not a directory") {
			t.Fatalf("run %d = %v, want the run error making -cdfdir", i, err)
		}
		f, err := os.Open(cpu)
		if err != nil {
			t.Fatal(err)
		}
		zr, err := gzip.NewReader(f)
		if err == nil {
			_, err = io.Copy(io.Discard, zr)
		}
		f.Close()
		if err != nil {
			t.Fatalf("profile of a failed run is not a complete gzip stream: %v", err)
		}
	}
}
