package replay

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"spritefs/internal/cluster"
	"spritefs/internal/faults"
	"spritefs/internal/trace"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_*.txt from this run")

// goldenText renders everything a replay result exposes — the bookkeeping
// table, the full report struct (which carries the Table 4 sampler's
// aggregates), the complete registry dump and, when sampled, the series —
// as the byte string the golden files pin.
func goldenText(t *testing.T, r *Result) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "== config %s\n%s", r.Config.Name, ReplayTable(r).String())
	fmt.Fprintf(&b, "== report\n%+v\n", r.Report)
	fmt.Fprintf(&b, "== registry\n")
	if err := r.Metrics.Registry().Dump(&b, "prom"); err != nil {
		t.Fatal(err)
	}
	if s := r.Metrics.MetricSampler; s != nil {
		fmt.Fprintf(&b, "== series\n")
		if err := s.Dump(&b, "tsv"); err != nil {
			t.Fatal(err)
		}
	}
	return b.String()
}

// TestGoldenReplay pins the replay engine's complete output byte-for-byte
// against files generated before replay was rebuilt over cluster.Cluster:
// any change to how the replayed system is wired — event scheduling order,
// client memory mix, server storage split, routing, daemon start times,
// metric families or instances — shows up as a diff here. Regenerate with
// -update-golden only for an intended behaviour change.
func TestGoldenReplay(t *testing.T) {
	live := capturedTrace(t)
	one := func(cfg Config) func() string {
		return func() string {
			res, err := Run(cfg, trace.NewSliceStream(live.recs))
			if err != nil {
				t.Fatal(err)
			}
			return goldenText(t, res)
		}
	}

	tuned := replayCfg("tuned")
	tuned.FixedCachePages = 512
	tuned.WritebackDelay = 5 * time.Second
	tuned.SamplePeriod = time.Minute
	tuned.MetricsMatch = func(name string) bool {
		return cluster.Table4Families(name) || strings.HasPrefix(name, "spritefs_server_")
	}

	faulted := replayCfg("faulted")
	sched, err := faults.Parse("server-crash:0@1h0m0s/30s,client-crash:2@1h10m0s")
	if err != nil {
		t.Fatal(err)
	}
	faulted.Faults = sched

	afap := replayCfg("afap")
	afap.AsFastAsPossible = true

	cases := []struct {
		file string
		run  func() string
	}{
		// The zero Config: four servers, dynamic cache sizing and the
		// 24/32 MB workstation memory mix.
		{"golden_default.txt", one(Config{Name: "default"})},
		{"golden_tuned.txt", one(tuned)},
		{"golden_faulted.txt", one(faulted)},
		{"golden_afap.txt", one(afap)},
	}
	for _, tc := range cases {
		t.Run(tc.file, func(t *testing.T) {
			got := tc.run()
			path := filepath.Join("testdata", tc.file)
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
			for i := 0; i < len(gl) && i < len(wl); i++ {
				if gl[i] != wl[i] {
					t.Fatalf("replay output drifted at line %d:\n got: %s\nwant: %s", i+1, gl[i], wl[i])
				}
			}
			t.Fatalf("replay output drifted: line counts differ (got %d, want %d)", len(gl), len(wl))
		})
	}
}
