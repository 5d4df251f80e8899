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

// TestPlacementSpreadsTheCatalog homes the real artifact catalog on the
// benchmark grids (16×4 and 40×4) and two corners (8×2, 8×8): every site
// must home at least one system binary. Every client reads the binaries,
// so a site that homes none of them sees only WAN traffic for them, and a
// site that homes all of them carries the whole grid's binary load.
func TestPlacementSpreadsTheCatalog(t *testing.T) {
	for _, g := range []struct{ shards, sites int }{{16, 4}, {40, 4}, {8, 2}, {8, 8}} {
		e := MustNew(Config{Base: placementBase(2*g.shards, 5), Shards: g.shards, Sites: g.sites})
		p := e.Placement
		binaries := make([]int, g.sites)
		for i := range e.Shards[0].C.Registry.Binaries {
			binaries[p.topo.SiteOf(p.homes[i].Shard)]++
		}
		for s, n := range binaries {
			if n == 0 {
				t.Errorf("%d shards × %d sites: site %d homes no system binary (per site %v)", g.shards, g.sites, s, binaries)
				break
			}
		}
	}
}

// TestPlacementMemoryIndependentOfClients pins the O(1)-at-1M-clients
// property: the catalog size is a function of the artifact classes, not
// the client population. Growing the community must not grow placement
// state.
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
