package scale_test

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"spritefs/internal/scale"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/backbone_digests.txt from this run")

const backboneDigests = "testdata/backbone_digests.txt"

// backboneCase is one pinned pricing configuration.
type backboneCase struct {
	name    string
	cfg     scale.Config
	horizon time.Duration
}

// backboneCases are the pinned configurations: a flat and a two-site
// 4-shard topology on the default prices, then every determinism-fuzz seed,
// whose topologies cover random tier prices and zero-latency corners.
func backboneCases() []backboneCase {
	sites := testConfig(42, 4)
	sites.Sites = 2
	cases := []backboneCase{
		{"flat-4", testConfig(42, 4), 30 * time.Minute},
		{"sites-2x2", sites, 30 * time.Minute},
	}
	for seed := int64(0); seed < fuzzSeeds; seed++ {
		cfg, horizon := fuzzConfig(seed)
		cases = append(cases, backboneCase{fmt.Sprintf("fuzz-%d", seed), cfg, horizon})
	}
	return cases
}

// TestBackbonePricingPinned runs each pinned configuration sequentially and
// compares the sha256 of its full registry dump with the committed digest.
// Every backbone price reaches the dump through message arrival times,
// remote latencies and the router and tier families, so a pricing refactor
// that moves one link's latency or bandwidth moves a digest. Regenerate
// with -update-golden only for an intended behaviour change.
func TestBackbonePricingPinned(t *testing.T) {
	var got strings.Builder
	for _, c := range backboneCases() {
		e := scale.MustNew(c.cfg)
		e.Run(scale.RunOptions{Horizon: c.horizon})
		var dump bytes.Buffer
		if err := e.Reg.WritePrometheus(&dump); err != nil {
			t.Fatalf("%s: WritePrometheus: %v", c.name, err)
		}
		fmt.Fprintf(&got, "%s %x\n", c.name, sha256.Sum256(dump.Bytes()))
	}
	if *updateGolden {
		if err := os.WriteFile(backboneDigests, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(backboneDigests)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimSpace(string(want)), "\n")
	gotLines := strings.Split(strings.TrimSpace(got.String()), "\n")
	if len(wantLines) != len(gotLines) {
		t.Fatalf("%d digests, pinned %d", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("digest moved:\n  got    %s\n  pinned %s", gotLines[i], wantLines[i])
		}
	}
}
