package cluster

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"spritefs/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the testdata golden files from this run")

// TestGoldenReport pins the full metric-registry dump of a seeded cluster
// run byte-for-byte. The dump projects every counter the report tables are
// built from, so any change to event ordering, scheduling, caching or
// accounting — however small — shows up here. The file was generated
// before the allocation-free scheduler rewrite; the optimized core must
// reproduce it exactly.
func TestGoldenReport(t *testing.T) {
	p := workload.ScaleCommunity(workload.Default(20260806), 0.25)
	p.EmitBackupNoise = false
	cfg := DefaultConfig(p)
	cfg.CollectTrace = false
	cfg.SamplePeriod = time.Minute
	c := New(cfg)
	c.Run(45 * time.Minute)

	var buf bytes.Buffer
	if err := c.Reg.Dump(&buf, "prom"); err != nil {
		t.Fatal(err)
	}
	// The golden file pins the dump of the pre-optimization code. The
	// spritefs_sim_* scheduler gauges are new instrumentation added by the
	// allocation-free core (they did not exist when the file was
	// generated), so they are additive-only and excluded from the pin;
	// every simulated-model family is compared byte-for-byte.
	got := stripSimGauges(buf.String())

	path := filepath.Join("testdata", "golden_report.prom")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update-golden): %v", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	n := len(gl)
	if len(wl) < n {
		n = len(wl)
	}
	for i := 0; i < n; i++ {
		if gl[i] != wl[i] {
			t.Fatalf("report drifted from pre-optimization output at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("report drifted: line counts differ (got %d, want %d)", len(gl), len(wl))
}

// TestTable4Pinned pins Table 4 of a four-hour batch run digit for digit:
// %+v prints every float at the shortest precision that round-trips, so a
// change to which samples are taken, how activity is judged or the order
// the windows are folded in moves a low bit here. Regenerate with
// -update-golden only for an intended behaviour change.
func TestTable4Pinned(t *testing.T) {
	got := fmt.Sprintf("%+v\n", runShort(t, 11, 4*time.Hour).Table4Report())
	path := filepath.Join("testdata", "table4_pinned.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing pin (regenerate with -update-golden): %v", err)
	}
	if got != string(want) {
		t.Errorf("Table 4 drifted:\n got %s\nwant %s", got, want)
	}
}

// stripSimGauges drops the families added after the golden file was
// generated (and their HELP/TYPE headers) from a prom dump: the
// spritefs_sim_* scheduler gauges and the spritefs_workload_* offered-load
// counters. Both are additive instrumentation over state that already
// existed; the simulated-model families remain pinned byte-for-byte.
func stripSimGauges(s string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(s, "\n") {
		if strings.Contains(line, "spritefs_sim_") || strings.Contains(line, "spritefs_workload_") {
			continue
		}
		b.WriteString(line)
	}
	return b.String()
}
