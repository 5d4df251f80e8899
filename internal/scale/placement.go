package scale

import (
	"cmp"
	"slices"
	"sort"

	"spritefs/internal/sim"
	"spritefs/internal/workload"
)

// The placement layer decides where the cross-segment visible artifacts
// — system binaries, kernel images, group shared files — live in the
// topology. Homes are assigned by consistent hashing over sites: each
// artifact key hashes onto a ring of site virtual nodes, then onto one
// segment within the winning site. Memory is O(catalog × ring), both
// constants of the artifact classes and the site count — nothing scales
// with the client population, which is what keeps a million-client
// topology's placement at a few kilobytes. Adding or removing a site
// remaps only the ~1/sites of keys whose ring arcs changed hands; every
// other artifact keeps its home (the property that would make data
// migration incremental in a real deployment).

// artifactClass tags the cross-segment visible file classes.
type artifactClass uint8

const (
	classBinary artifactClass = iota
	classKernel
	classShared
)

// hash64 is the splitmix64 finalizer: a cheap, well-distributed stateless
// hash used for ring points and catalog keys. It is fixed for all time —
// placement homes are part of the deterministic simulation output.
func hash64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// catalogKey identifies one artifact independent of where it lives: the
// class, the owning group (shared files only) and the index within the
// class. Keys, not file ids, are hashed — file ids encode the server a
// bootstrap happened to pick, which must not feed back into placement.
type catalogKey struct {
	class artifactClass
	group int16
	index int32
}

func (k catalogKey) hash() uint64 {
	return hash64(uint64(k.class)<<48 | uint64(uint16(k.group))<<32 | uint64(uint32(k.index)))
}

// ringVnodes is how many virtual nodes each site contributes to the hash
// ring. 64 keeps the per-site share within a few percent of uniform while
// the whole ring for a thousand sites still fits in one L2 cache line
// sweep.
const ringVnodes = 64

type ringPoint struct {
	point uint64
	site  int32
}

// hashRing is a consistent-hash ring over sites: sorted virtual-node
// points, each owning the arc that ends at it.
type hashRing struct {
	points []ringPoint
}

// newRing builds the ring for a site count. Point positions depend only
// on (site, vnode), so growing the ring from n to n+1 sites inserts the
// new site's points without moving anyone else's — the stability property
// the placement tests pin.
func newRing(sites int) hashRing {
	pts := make([]ringPoint, 0, sites*ringVnodes)
	for s := 0; s < sites; s++ {
		for v := 0; v < ringVnodes; v++ {
			pts = append(pts, ringPoint{point: hash64(uint64(s)<<20 | uint64(v)), site: int32(s)})
		}
	}
	slices.SortFunc(pts, func(a, b ringPoint) int {
		if c := cmp.Compare(a.point, b.point); c != 0 {
			return c
		}
		return cmp.Compare(a.site, b.site) // 64-bit collisions are ~impossible; break ties anyway
	})
	return hashRing{points: pts}
}

// lookup returns the site owning the first ring point at or after h,
// wrapping at the top of the ring.
func (r hashRing) lookup(h uint64) int {
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].point >= h })
	if i == len(r.points) {
		i = 0
	}
	return int(r.points[i].site)
}

// segSalt decorrelates the within-site segment choice from the site
// choice, so a key's segment is not a function of its ring position.
const segSalt = 0xa24baed4963ee407

// PlacedFile is one cross-segment visible artifact and its home.
type PlacedFile struct {
	Shard int
	File  uint64
	Size  int64
}

// Placement maps the artifact catalog onto the topology by consistent
// hashing. It is built once after bootstrap, before the executor starts,
// and never mutated — shards read it concurrently without
// synchronization.
type Placement struct {
	topo   Topology
	homes  []PlacedFile
	bySite [][]int32 // catalog indices homed in each site
}

// buildPlacement hashes the artifact catalog onto the topology. The
// catalog shape (class counts) is taken from shard 0's registry — binary
// and kernel counts are bootstrap constants, group-shared counts vary a
// little per shard, and a key landing on a shard with fewer artifacts in
// its class wraps by modulo. Each key's home is its ring site, then a
// hash-chosen segment within that site, then whichever server the home
// segment's bootstrap put the artifact on.
func buildPlacement(topo Topology, shards []*Shard) *Placement {
	canon := shards[0].C.Registry
	var keys []catalogKey
	for i := range canon.Binaries {
		keys = append(keys, catalogKey{class: classBinary, index: int32(i)})
	}
	for i := range canon.KernelImages {
		keys = append(keys, catalogKey{class: classKernel, index: int32(i)})
	}
	for g := workload.Group(0); g < workload.NumGroups; g++ {
		for i := range canon.GroupShared[g] {
			keys = append(keys, catalogKey{class: classShared, group: int16(g), index: int32(i)})
		}
	}

	ring := newRing(topo.Sites)
	p := &Placement{
		topo:   topo,
		homes:  make([]PlacedFile, 0, len(keys)),
		bySite: make([][]int32, topo.Sites),
	}
	for _, k := range keys {
		h := k.hash()
		site := ring.lookup(h)
		seg := int(hash64(h^segSalt) % uint64(topo.SegsPerSite))
		shard := site*topo.SegsPerSite + seg
		sh := shards[shard]
		reg := sh.C.Registry
		var f uint64
		switch k.class {
		case classBinary:
			f = reg.Binaries[int(k.index)%len(reg.Binaries)].File
		case classKernel:
			f = reg.KernelImages[int(k.index)%len(reg.KernelImages)]
		default:
			files := reg.GroupShared[k.group]
			f = files[int(k.index)%len(files)]
		}
		var size int64
		if fl := sh.C.ServerFor(f).Lookup(f); fl != nil {
			size = fl.Size
		}
		p.bySite[site] = append(p.bySite[site], int32(len(p.homes)))
		p.homes = append(p.homes, PlacedFile{Shard: shard, File: f, Size: size})
	}
	return p
}

// Len returns the catalog size: the number of placed artifacts. It is a
// function of the artifact classes only, not of the client population.
func (p *Placement) Len() int { return len(p.homes) }

// pickExcluding draws uniformly from the catalog indices in idxs,
// rejecting entries homed on shard `from`. A handful of retries covers
// the common case; the deterministic wrap-around scan guarantees a hit
// whenever one exists (all draws come from rng, so the sequence is a
// pure function of the shard's stream).
func (p *Placement) pickExcluding(rng *sim.Rand, idxs []int32, from int) (PlacedFile, bool) {
	if len(idxs) == 0 {
		return PlacedFile{}, false
	}
	for try := 0; try < 4; try++ {
		pf := p.homes[idxs[rng.Intn(len(idxs))]]
		if pf.Shard != from {
			return pf, true
		}
	}
	start := rng.Intn(len(idxs))
	for i := 0; i < len(idxs); i++ {
		pf := p.homes[idxs[(start+i)%len(idxs)]]
		if pf.Shard != from {
			return pf, true
		}
	}
	return PlacedFile{}, false
}

// PickRemote draws an artifact homed on any shard but `from`. With a
// hierarchical topology, an affinity-weighted coin first tries the
// caller's own site — crossing only the site tier — and falls back to
// the global catalog (usually crossing the WAN) when the site has
// nothing remote to offer. ok is false when every artifact is homed on
// the calling shard (pathological: a tiny catalog on a tiny topology).
func (p *Placement) PickRemote(rng *sim.Rand, from int, affinity float64) (PlacedFile, bool) {
	if len(p.homes) == 0 {
		return PlacedFile{}, false
	}
	if p.topo.Sites > 1 && affinity > 0 && rng.Bool(affinity) {
		if pf, ok := p.pickExcluding(rng, p.bySite[p.topo.SiteOf(from)], from); ok {
			return pf, true
		}
	}
	return p.pickAll(rng, from)
}

// pickAll draws from the whole catalog, rejecting the caller's shard.
func (p *Placement) pickAll(rng *sim.Rand, from int) (PlacedFile, bool) {
	n := len(p.homes)
	for try := 0; try < 4; try++ {
		pf := p.homes[rng.Intn(n)]
		if pf.Shard != from {
			return pf, true
		}
	}
	start := rng.Intn(n)
	for i := 0; i < n; i++ {
		pf := p.homes[(start+i)%n]
		if pf.Shard != from {
			return pf, true
		}
	}
	return PlacedFile{}, false
}
