package core

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestClaimsQuick pins the claims table at two simulated hours on the full
// community, byte for byte, and requires every claim to hold there: the
// verdicts are the ablation checks (prefetch, cache size, writeback delay,
// live polling) the model must keep passing. Regenerate with
// -update-golden (`make golden`) only for an intended change to what the
// claims print.
func TestClaimsQuick(t *testing.T) {
	r, err := RunClaims(2, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := ClaimTables(r)
	path := filepath.Join("testdata", "claims_quick.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("claims differ from %s:\n--- got ---\n%s--- want ---\n%s", path, got, want)
	}
	for _, c := range r.checked {
		if !c.ok {
			t.Errorf("%s fails at 2h: %s", c.id, c.note)
		}
	}
}

// TestClaimsSeeTheirAxis: every claim with more than one point reads
// different values at each point than at its first, and fails once every
// point runs the first point's setter. Each rule compares points strictly,
// so a claim that held with its axis ignored would judge nothing.
func TestClaimsSeeTheirAxis(t *testing.T) {
	const hours, scale, seed = 2, 0.25, defaultCounterSeed
	for i := range claims {
		c := claims[i]
		if len(c.points) < 2 {
			continue
		}
		t.Run(c.id, func(t *testing.T) {
			run, err := check(&c, hours, scale, seed)
			if err != nil {
				t.Fatal(err)
			}
			for p := 1; p < len(c.points); p++ {
				if slices.Equal(run.values[p], run.values[0]) {
					t.Errorf("point %q reads what %q reads: %v", c.points[p].label, c.points[0].label, run.values[p])
				}
			}
			flat := c
			flat.points = nil
			for _, pt := range c.points {
				flat.points = append(flat.points, point{pt.label, c.points[0].set})
			}
			ignored, err := check(&flat, hours, scale, seed)
			if err != nil {
				t.Fatal(err)
			}
			if ignored.ok {
				t.Errorf("holds with every point set as %q: %s", c.points[0].label, ignored.note)
			}
		})
	}
}

// TestBurstyRule: s4.bursty judges only the two averages. It holds at the
// paper's 47 vs 8.0 KB/s and at exactly 3x, and fails below 3x whatever
// the peaks read.
func TestBurstyRule(t *testing.T) {
	i := slices.IndexFunc(claims, func(c claim) bool { return c.id == "s4.bursty" })
	if i < 0 {
		t.Fatal("no claim s4.bursty")
	}
	for _, tc := range []struct {
		long, short, longPeak, shortPeak float64
		want                             bool
	}{
		{8.0, 47, 458, 9871, true},
		{8, 24, 100, 100, true},
		{8, 20, 100, 9871, false},
		{8, 8, 458, 9871, false},
	} {
		if ok, note := claims[i].holds([][]float64{{tc.long, tc.short, tc.longPeak, tc.shortPeak}}); ok != tc.want {
			t.Errorf("10m %g, 10s %g KB/s: holds = %v, want %v (%s)", tc.long, tc.short, ok, tc.want, note)
		}
	}
}
