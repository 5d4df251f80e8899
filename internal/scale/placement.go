package scale

import (
	"spritefs/internal/sim"
	"spritefs/internal/workload"
)

// The placement layer decides where the cross-segment visible artifacts
// — system binaries, kernel images, group shared files — live in the
// topology. Each artifact key hashes, salted, onto one shard of the whole
// Sites × SegsPerSite grid; its site is that shard's site. With one site
// this is the flat segment hash. Memory is O(catalog), a constant of the
// artifact classes — nothing scales with the client population, which is
// what keeps a million-client topology's placement at a few kilobytes.
// Homes are fixed for the life of an engine: no site joins or leaves a
// built topology, so placement needs no remapping property.

// artifactClass tags the cross-segment visible file classes.
type artifactClass uint8

const (
	classBinary artifactClass = iota
	classKernel
	classShared
)

// hash64 is the splitmix64 finalizer: a cheap, well-distributed stateless
// hash used for catalog keys and their homes. It is fixed for all time —
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

// segSalt salts a key's hash before it picks a shard. Its value is fixed
// by the flat topologies' pinned digests: with one site the pick is the
// segment hash those digests were recorded under.
const segSalt = 0xa24baed4963ee407

// PlacedFile is one cross-segment visible artifact and its home.
type PlacedFile struct {
	Shard int
	File  uint64
	Size  int64
}

// Placement maps the artifact catalog onto the shard grid by one hash per
// artifact. It is built once after bootstrap, before the executor starts,
// and never mutated — shards read it concurrently without
// synchronization.
type Placement struct {
	topo   Topology
	homes  []PlacedFile
	all    []int32   // every catalog index, ascending
	bySite [][]int32 // catalog indices homed in each site
}

// buildPlacement hashes the artifact catalog onto the topology. The
// catalog shape (class counts) is taken from shard 0's registry — binary
// and kernel counts are bootstrap constants, group-shared counts vary a
// little per shard, and a key landing on a shard with fewer artifacts in
// its class wraps by modulo. Each key's home is its hash-chosen shard,
// then whichever server that segment's bootstrap put the artifact on.
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

	p := &Placement{
		topo:   topo,
		homes:  make([]PlacedFile, 0, len(keys)),
		all:    make([]int32, 0, len(keys)),
		bySite: make([][]int32, topo.Sites),
	}
	for _, k := range keys {
		shard := int(hash64(k.hash()^segSalt) % uint64(topo.Sites*topo.SegsPerSite))
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
		site := topo.SiteOf(shard)
		p.all = append(p.all, int32(len(p.homes)))
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
	if p.topo.Sites > 1 && affinity > 0 && rng.Bool(affinity) {
		if pf, ok := p.pickExcluding(rng, p.bySite[p.topo.SiteOf(from)], from); ok {
			return pf, true
		}
	}
	return p.pickExcluding(rng, p.all, from)
}
