package scale_test

import (
	"fmt"
	"testing"
	"time"

	"spritefs/internal/cluster"
	"spritefs/internal/faults"
	"spritefs/internal/scale"
	"spritefs/internal/sim"
	"spritefs/internal/workload"
)

// fuzzSeeds is the corpus size: each seed derives a random topology
// (shard count, hierarchical site grouping with random tier pricing
// including zero-latency tiers, community size, server groups,
// remote-traffic mix, fault schedules) that is run sequentially and in
// parallel at every worker count.
const fuzzSeeds = 50

// fuzzConfig derives one random topology from a seed. Everything —
// including the per-shard fault schedules — is drawn up front from a
// single deterministic stream, so the same Config can instantiate any
// number of engines identically.
func fuzzConfig(seed int64) (scale.Config, time.Duration) {
	rng := sim.NewRand(seed ^ 0x5eedf022)

	shards := 2 + rng.Intn(7)   // 2..8 segments
	perShard := 2 + rng.Intn(3) // 2..4 clients each
	servers := 1 + rng.Intn(3)  // 1..3 servers per shard
	clients := shards * perShard

	// Half the corpus regroups the segments into a hierarchical topology:
	// a random divisor of the segment count becomes the site count (the
	// whole range from 2 sites of several segments down to one segment
	// per site), with randomly priced tiers including the zero-latency
	// WAN and zero-latency site-backbone corners the stall-breaker covers.
	sites := 1
	var tiers scale.TiersConfig
	if rng.Bool(0.5) {
		var divs []int
		for d := 2; d <= shards; d++ {
			if shards%d == 0 {
				divs = append(divs, d)
			}
		}
		sites = divs[rng.Intn(len(divs))]
		tiers = scale.TiersConfig{
			Site: scale.Tier{
				Latency:      time.Duration(rng.Range(float64(20*time.Microsecond), float64(3*time.Millisecond))),
				BandwidthBps: rng.Range(1e6, 1e9),
			},
			WAN: scale.Tier{
				Latency:      time.Duration(rng.Range(float64(1*time.Millisecond), float64(80*time.Millisecond))),
				BandwidthBps: rng.Range(1e5, 1e8),
			},
		}
		if rng.Bool(0.15) {
			tiers.WAN.Latency = 0
		}
		if rng.Bool(0.1) {
			tiers.Site.Latency = 0
		}
	}

	p := workload.Default(1000 + seed)
	p.NumClients = clients
	p.DailyUsers = clients - clients/4 - 1
	p.OccasionalUsers = clients / 4
	p.BigSimUsers = 1

	// A flat topology's one price; drawn for every seed so the stream
	// stays aligned, and used only when there is one site.
	flat := scale.Tier{
		Latency:      time.Duration(rng.Range(float64(50*time.Microsecond), float64(5*time.Millisecond))),
		BandwidthBps: rng.Range(1e6, 1e9),
	}
	if sites == 1 {
		tiers.Site = flat
	}
	if rng.Bool(1.0 / 3) {
		// The zero-lookahead corner: a zero-latency site tier with at
		// least two segments per site (one site of a prime segment count
		// at worst), so the links inside a site offer no window and the
		// executor falls back to its stall-breaker.
		if sites == shards {
			for sites--; shards%sites != 0; sites-- {
			}
		}
		tiers.Site.Latency = 0
	}

	remote := scale.RemoteConfig{
		OpsPerClientHour: rng.Range(30, 600),
		ReadFrac:         rng.Range(0.2, 1.0),
		BytesMedian:      rng.Range(512, 64*1024),
		BytesSigma:       rng.Range(0.3, 1.5),
	}
	if sites > 1 {
		remote.SiteAffinity = rng.Range(0, 1)
	}

	horizon := time.Duration(rng.Range(float64(4*time.Minute), float64(10*time.Minute)))

	cfg := scale.Config{
		Base:            p,
		Shards:          shards,
		Sites:           sites,
		Tiers:           tiers,
		ServersPerShard: servers,
		Remote:          remote,
	}
	if rng.Bool(0.5) {
		// Per-shard fault schedules, precomputed so Tune stays a pure
		// function of the shard index across engine instantiations.
		schedules := make([]faults.Schedule, shards)
		for i := range schedules {
			schedules[i] = faults.Random(rng.Fork(), horizon, 1+rng.Intn(3), servers, perShard)
		}
		cfg.Tune = func(shard int, ccfg *cluster.Config) {
			ccfg.Faults = schedules[shard]
		}
	}
	return cfg, horizon
}

// runFuzzSeed runs one corpus entry sequentially and at each parallel
// worker count, asserting byte-identical reports and full
// metrics-registry dumps. It returns the entry's config and the
// sequential run's executor statistics.
func runFuzzSeed(t *testing.T, seed int64, workerCounts []int) (scale.Config, scale.ExecStats) {
	t.Helper()
	cfg, horizon := fuzzConfig(seed)
	ref := scale.MustNew(cfg)
	refStats := ref.Run(scale.RunOptions{Horizon: horizon})
	want := fingerprint(t, ref)
	for _, w := range workerCounts {
		e := scale.MustNew(cfg)
		st := e.Run(scale.RunOptions{Horizon: horizon, Parallel: true, Workers: w})
		if got := fingerprint(t, e); got != want {
			t.Errorf("seed %d: workers=%d output differs from sequential\n%s", seed, w, firstDiff(want, got))
		}
		if st.Exec != refStats.Exec {
			t.Errorf("seed %d: workers=%d exec stats differ: sequential %+v parallel %+v", seed, w, refStats.Exec, st.Exec)
		}
	}
	return cfg, refStats.Exec
}

// firstDiff locates the first divergent line of two fingerprints so a
// fuzz failure is diagnosable without dumping two full registries.
func firstDiff(want, got string) string {
	w, g := 0, 0
	line := 1
	for w < len(want) && g < len(got) {
		we, ge := w, g
		for we < len(want) && want[we] != '\n' {
			we++
		}
		for ge < len(got) && got[ge] != '\n' {
			ge++
		}
		if want[w:we] != got[g:ge] {
			return fmt.Sprintf("first differing line %d:\n  sequential: %s\n  parallel:   %s", line, want[w:we], got[g:ge])
		}
		w, g = we+1, ge+1
		line++
	}
	if len(want) != len(got) {
		return fmt.Sprintf("fingerprints differ in length: sequential %d bytes, parallel %d bytes", len(want), len(got))
	}
	return "fingerprints differ"
}

// TestDeterminismFuzz sweeps the corpus: ~50 seeded random topologies,
// each run sequentially and in parallel at 1, 2, 4 and 8 workers, with
// byte-identity of report tables plus the full metrics dump required
// throughout. -short trims the corpus for quick local runs; the full
// sweep runs under `make test`. When every seed ran, the corpus must also
// still reach the corners it exists for: at least three seeds that need
// the stall-breaker, a topology of one segment per site, and a flat one.
func TestDeterminismFuzz(t *testing.T) {
	n := fuzzSeeds
	if testing.Short() {
		n = 10
	}
	var ran, rescued, segPerSite, flat int
	for seed := int64(0); seed < int64(n); seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cfg, exec := runFuzzSeed(t, seed, []int{1, 2, 4, 8})
			ran++
			if exec.Rescues > 0 {
				rescued++
			}
			if cfg.Sites == cfg.Shards && cfg.Shards > 1 {
				segPerSite++
			}
			if cfg.Sites <= 1 {
				flat++
			}
		})
	}
	if ran == n && (rescued < 3 || segPerSite == 0 || flat == 0) {
		t.Errorf("corpus of %d seeds: %d reach a stall rescue (want >= 3), %d have one segment per site, %d are flat (want >= 1 each)",
			n, rescued, segPerSite, flat)
	}
}

// TestDetermFuzzSmoke is the corpus's smallest seed alone, kept cheap so
// `make scalecheck` can run it under the race detector at 1, 4 and 8
// workers on every change.
func TestDetermFuzzSmoke(t *testing.T) {
	runFuzzSeed(t, 0, []int{1, 4, 8})
}
