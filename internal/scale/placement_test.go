package scale

import (
	"testing"

	"spritefs/internal/sim"
	"spritefs/internal/workload"
)

// placementBase builds a small community sized for n clients.
func placementBase(clients int, seed int64) workload.Params {
	p := workload.Default(seed)
	p.NumClients = clients
	p.DailyUsers = clients - clients/4 - 1
	p.OccasionalUsers = clients / 4
	p.BigSimUsers = 1
	return p
}

// TestRingStabilityUnderSiteChange pins the consistent-hash property the
// placement layer exists for: growing the ring from n to n+1 sites moves
// only the keys the new site captured — every moved key lands on the new
// site, and the moved fraction stays near 1/(n+1).
func TestRingStabilityUnderSiteChange(t *testing.T) {
	const keys = 8192
	for _, n := range []int{2, 4, 8, 16} {
		before := newRing(n)
		after := newRing(n + 1)
		moved := 0
		for i := 0; i < keys; i++ {
			h := hash64(uint64(i) * 0x9e3779b97f4a7c15)
			a, b := before.lookup(h), after.lookup(h)
			if a == b {
				continue
			}
			moved++
			if b != n {
				t.Fatalf("sites %d->%d: key %d moved %d->%d, not to the new site %d", n, n+1, i, a, b, n)
			}
		}
		if moved == 0 {
			t.Fatalf("sites %d->%d: no keys moved to the new site", n, n+1)
		}
		frac := float64(moved) / keys
		want := 1.0 / float64(n+1)
		if frac > 3*want {
			t.Errorf("sites %d->%d: %.1f%% of keys moved, want about %.1f%%", n, n+1, frac*100, want*100)
		}
	}
}

// TestRingBalance checks the virtual nodes spread keys across sites
// within a reasonable factor of fair share.
func TestRingBalance(t *testing.T) {
	const sites, keys = 8, 65536
	r := newRing(sites)
	counts := make([]int, sites)
	for i := 0; i < keys; i++ {
		counts[r.lookup(hash64(uint64(i)*0x9e3779b97f4a7c15))]++
	}
	fair := float64(keys) / sites
	for s, c := range counts {
		if float64(c) < 0.4*fair || float64(c) > 2.0*fair {
			t.Errorf("site %d owns %d of %d keys (fair share %.0f): ring imbalanced", s, c, keys, fair)
		}
	}
}

// TestPlacementMemoryIndependentOfClients pins the O(1)-at-1M-clients
// property: the catalog size is a function of the artifact classes, not
// the client population, and the ring is a function of the site count
// alone. Growing the community must not grow placement state.
func TestPlacementMemoryIndependentOfClients(t *testing.T) {
	build := func(clients int) *Engine {
		return MustNew(Config{
			Base:   placementBase(clients, 99),
			Shards: 4,
			Sites:  2,
		})
	}
	small := build(16)
	big := build(64)
	// The catalog is bounded by the artifact-class constants (24 binaries
	// + 6 kernels + 4..7 shared files per group), whatever the community
	// size.
	lo := 30 + 4*int(workload.NumGroups)
	hi := 30 + 7*int(workload.NumGroups)
	// The shared-file counts are bootstrap draws in [4, 7] per group, so
	// two communities may differ by a few entries — but both must stay in
	// the class-constant band whatever the population.
	for _, e := range []*Engine{small, big} {
		if n := e.Placement.Len(); n < lo || n > hi {
			t.Errorf("catalog size %d outside the class-constant band [%d, %d]", n, lo, hi)
		}
	}
	if got, want := len(newRing(2).points), 2*ringVnodes; got != want {
		t.Errorf("ring points = %d, want %d (sites × vnodes, independent of clients)", got, want)
	}
}

// TestPickRemoteNeverLocal asserts the picker's contract: whatever the
// affinity, the artifact returned is never homed on the calling shard,
// and full site affinity keeps the pick inside the caller's site whenever
// the site has remote artifacts to offer.
func TestPickRemoteNeverLocal(t *testing.T) {
	e := MustNew(Config{
		Base:   placementBase(16, 7),
		Shards: 4,
		Sites:  2,
	})
	p := e.Placement
	for from := 0; from < 4; from++ {
		// Does the caller's site have artifacts on its other segment?
		siteHasRemote := false
		for _, i := range p.bySite[p.topo.SiteOf(from)] {
			if p.homes[i].Shard != from {
				siteHasRemote = true
				break
			}
		}
		for _, affinity := range []float64{0, 0.5, 1} {
			rng := sim.NewRand(int64(from)*1000 + int64(affinity*10))
			for i := 0; i < 500; i++ {
				pf, ok := p.PickRemote(rng, from, affinity)
				if !ok {
					t.Fatalf("from=%d affinity=%g: no remote artifact found", from, affinity)
				}
				if pf.Shard == from {
					t.Fatalf("from=%d affinity=%g: picked a local artifact (shard %d)", from, affinity, pf.Shard)
				}
				if affinity == 1 && siteHasRemote && !p.topo.SameSite(from, pf.Shard) {
					t.Fatalf("from=%d affinity=1: picked cross-site shard %d with site-local artifacts available", from, pf.Shard)
				}
			}
		}
	}
}

// TestPlacementDeterministic pins that two engines built from one config
// place every artifact identically — placement feeds the remote-traffic
// streams, so any instability here would break run-to-run byte-identity.
func TestPlacementDeterministic(t *testing.T) {
	cfg := Config{Base: placementBase(16, 3), Shards: 4, Sites: 2}
	a, b := MustNew(cfg), MustNew(cfg)
	if a.Placement.Len() != b.Placement.Len() {
		t.Fatalf("catalog sizes differ: %d vs %d", a.Placement.Len(), b.Placement.Len())
	}
	for i := range a.Placement.homes {
		if a.Placement.homes[i] != b.Placement.homes[i] {
			t.Fatalf("catalog entry %d differs: %+v vs %+v", i, a.Placement.homes[i], b.Placement.homes[i])
		}
	}
}
