package cluster

import (
	"testing"
	"time"

	"spritefs/internal/vm"
)

// These three tests check the mechanisms behind the claims s5.2.cache_floor,
// s6.longer_delay and s5.2.prefetch on a small 8-client community, so a
// mechanism that breaks fails here without the counter study's full run.

func TestAblationFixedCacheSizeMonotonicMisses(t *testing.T) {
	// Bigger fixed caches must not miss more.
	var prev float64 = 101
	for _, mb := range []int{1, 4, 16} {
		c := ablationRun(t, func(cfg *Config) { cfg.FixedCachePages = mb << 20 / vm.PageSize })
		miss := c.Table6Report().All.ReadMissPct
		if miss > prev+2 { // small tolerance: workloads differ slightly via timing
			t.Errorf("%d MB cache missed more than smaller cache: %.1f > %.1f", mb, miss, prev)
		}
		prev = miss
	}
}

func TestAblationLongerDelaySavesMoreBytes(t *testing.T) {
	short := ablationRun(t, func(cfg *Config) { cfg.WritebackDelay = 5 * time.Second })
	long := ablationRun(t, func(cfg *Config) { cfg.WritebackDelay = 10 * time.Minute })
	s6 := short.Table6Report()
	l6 := long.Table6Report()
	if l6.BytesSavedByDeletePct <= s6.BytesSavedByDeletePct {
		t.Errorf("longer delay saved less: %.1f%% vs %.1f%%",
			l6.BytesSavedByDeletePct, s6.BytesSavedByDeletePct)
	}
	if l6.All.WritebackPct >= s6.All.WritebackPct {
		t.Errorf("longer delay wrote back more: %.1f%% vs %.1f%%",
			l6.All.WritebackPct, s6.All.WritebackPct)
	}
}

func TestAblationPrefetchDoesNotCutReadBytes(t *testing.T) {
	// The paper's Section 5.2 claim: prefetch lowers the *miss count* but
	// cannot lower the bytes fetched from servers.
	off := ablationRun(t, func(cfg *Config) { cfg.PrefetchBlocks = 0 })
	on := ablationRun(t, func(cfg *Config) { cfg.PrefetchBlocks = 8 })
	offT6 := off.Table6Report()
	onT6 := on.Table6Report()
	if onT6.All.ReadMissPct >= offT6.All.ReadMissPct {
		t.Errorf("prefetch did not reduce miss ops: %.1f%% vs %.1f%%",
			onT6.All.ReadMissPct, offT6.All.ReadMissPct)
	}
	// The byte RATIO (fetched from servers / requested by applications)
	// is the paper's claim: prefetch cannot reduce it. Totals are not
	// comparable across runs because latency feedback changes how much
	// work the community completes before the fixed horizon.
	if onT6.All.ReadMissTrafficPct < 0.9*offT6.All.ReadMissTrafficPct {
		t.Errorf("prefetch reduced miss traffic ratio: %.1f%% vs %.1f%% (the paper says it cannot)",
			onT6.All.ReadMissTrafficPct, offT6.All.ReadMissTrafficPct)
	}
}
