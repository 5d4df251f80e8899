package scale_test

import (
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"spritefs/internal/cluster"
	"spritefs/internal/metrics"
	"spritefs/internal/scale"
)

// sitedConfig is testConfig on a 2-site grid, so the per-tier and
// cross-site families register too.
func sitedConfig(seed int64, lean bool) scale.Config {
	cfg := testConfig(seed, 4)
	cfg.Sites = 2
	cfg.LeanMetrics = lean
	return cfg
}

// instances counts the registered instances of the families whose name
// starts with prefix.
func instances(r *metrics.Registry, prefix string) int {
	n := 0
	for _, f := range r.Families() {
		if strings.HasPrefix(f.Desc.Name, prefix) {
			n += f.Instances()
		}
	}
	return n
}

// TestRegistrationShardsHoldNothing: the engine is the only owner of a
// registry. Lean or full, a shard's cluster registers nothing of its own,
// and a Tune that asks a shard to sample its (empty) registry is refused.
func TestRegistrationShardsHoldNothing(t *testing.T) {
	for _, lean := range []bool{false, true} {
		e := scale.MustNew(sitedConfig(5, lean))
		for _, sh := range e.Shards {
			if n := sh.C.Reg.Len(); n != 0 {
				t.Errorf("lean=%v: shard %d holds %d metric instances of its own", lean, sh.ID, n)
			}
		}
		if e.Reg.Len() == 0 {
			t.Errorf("lean=%v: engine registry is empty", lean)
		}
	}

	defer func() {
		if recover() == nil {
			t.Error("no panic for a Tune that sets SamplePeriod on a shard")
		}
	}()
	cfg := sitedConfig(5, false)
	cfg.Tune = func(_ int, c *cluster.Config) { c.SamplePeriod = time.Minute }
	scale.MustNew(cfg)
}

// TestRegistrationLeanMatchesFull: LeanMetrics changes what Engine.Reg
// carries and nothing else. Same seed, lean and full: equal reports, no
// per-client instance in the lean registry, and every other point of the
// full registry present in the lean one with the same value.
func TestRegistrationLeanMatchesFull(t *testing.T) {
	run := func(lean bool) (*scale.Engine, scale.Report) {
		e := scale.MustNew(sitedConfig(9, lean))
		e.Run(scale.RunOptions{Horizon: 20 * time.Minute})
		return e, e.Report()
	}
	full, fullRep := run(false)
	lean, leanRep := run(true)
	if fullRep.Exec.Routed == 0 {
		t.Fatal("no cross-shard messages were exchanged; the test exercises nothing")
	}
	if !reflect.DeepEqual(fullRep, leanRep) {
		t.Errorf("reports differ:\nfull %+v\nlean %+v", fullRep, leanRep)
	}

	perClient := func(p metrics.Point) bool { return strings.Contains(p.Labels, `client="`) }
	leanPts := lean.Reg.Snapshot()
	if i := slices.IndexFunc(leanPts, perClient); i >= 0 {
		t.Errorf("lean registry carries a per-client instance: %s{%s}", leanPts[i].Name, leanPts[i].Labels)
	}
	fullPts := full.Reg.Snapshot()
	shared := slices.DeleteFunc(slices.Clone(fullPts), perClient)
	if len(shared) == len(fullPts) {
		t.Fatal("full registry carries no per-client instance; the test exercises nothing")
	}
	if !slices.Equal(shared, leanPts) {
		t.Errorf("non-client points differ: full has %d, lean has %d", len(shared), len(leanPts))
		for i := 0; i < min(len(shared), len(leanPts)); i++ {
			if shared[i] != leanPts[i] {
				t.Errorf("first difference at %d:\nfull %+v\nlean %+v", i, shared[i], leanPts[i])
				break
			}
		}
	}
}

// TestRegistrationFullIsSumOfShards: every component registers exactly
// once. The full engine registry holds what each shard's cluster would
// register standing alone — less its spritefs_workload_* families, which
// Engine.Reg has never carried — plus the engine's own spritefs_scale_*
// instances, and not one instance more.
func TestRegistrationFullIsSumOfShards(t *testing.T) {
	e := scale.MustNew(sitedConfig(5, false))
	want := instances(e.Reg, "spritefs_scale_")
	if want == 0 {
		t.Fatal("engine registered no spritefs_scale_* instance")
	}
	for _, sh := range e.Shards {
		cfg := sh.C.Cfg
		cfg.ExternalRegistry = false
		alone := cluster.New(cfg).Reg
		if instances(alone, "spritefs_workload_") == 0 {
			t.Fatalf("shard %d's stand-alone cluster registered no workload family", sh.ID)
		}
		want += alone.Len() - instances(alone, "spritefs_workload_")
	}
	if got := e.Reg.Len(); got != want {
		t.Errorf("engine registry holds %d instances, want %d", got, want)
	}
	if n := instances(e.Reg, "spritefs_workload_"); n != 0 {
		t.Errorf("engine registry carries %d spritefs_workload_* instances", n)
	}
}
