package workload

import (
	"sort"
	"time"
)

// Post-1991 application generators: the media-streaming client and the
// package-build farm (ROADMAP item 16). Both are disabled at the default
// parameters — their AppMix weights are zero and their populations empty —
// so the paper's calibrated traces are untouched; StreamingParams and
// BuildFarmParams turn them on.

// genStream models one playback session: open a media object, then
// alternate seek bursts (the viewer scrubbing for a scene) with long
// paced sequential reads (the player filling its buffer at the stream
// bitrate). Random-access sessions model thumbnail scrubbing — every
// segment starts with a jump.
func (e *Engine) genStream(u *userState) ([]op, float64) {
	b := e.newBuilder()
	bin := e.reg.RandomBinary(e.rng)
	b.exec(bin, e.p.StackPages)
	f, ok := e.reg.RandomMedia(e.rng)
	if !ok {
		// No media library (mis-configured mix): fall back to the largest
		// files the 1991 population has.
		if len(e.reg.KernelImages) == 0 {
			return b.exit(), e.p.EditRate
		}
		f = e.reg.KernelImages[e.rng.Intn(len(e.reg.KernelImages))]
	}
	h := b.open(staticFile(f), true, false)
	random := e.rng.Bool(e.p.StreamRandomP)
	segments := 4 + e.rng.Intn(12)
	for s := 0; s < segments; s++ {
		if random || (s > 0 && e.rng.Bool(e.p.StreamSeekBurstP)) {
			// Scrub: a burst of repositions as the player hunts for the
			// nearest keyframe before settling.
			hunts := 1 + e.rng.Intn(3)
			for j := 0; j < hunts; j++ {
				b.seek(h, seekRandom)
			}
		}
		// One buffer fill: a multi-chunk sequential burst. The playback
		// rate paces the transfer (xfer in doOp), so a segment plays for
		// seconds of virtual time.
		chunks := int64(2 + e.rng.Intn(6))
		b.readSeq(h, chunks*e.p.ChunkBytes)
		if e.rng.Bool(0.08) {
			// The viewer pauses; the handle stays open, stretching the
			// open-duration tail far beyond anything in the 1991 traces.
			b.think(e.rng.ExpDur(10 * time.Second))
		}
	}
	b.close(h)
	rate := e.p.MediaBitrate
	if rate <= 0 {
		rate = 1 << 20
	}
	return b.exit(), rate
}

// farmRun is one pmake-style build-farm invocation: a seeded dependency
// DAG of packages, built by a bounded worker pool that farms each ready
// package out to an idle workstation via process migration, then links
// the artifacts at home.
type farmRun struct {
	u         *userState
	deps      [][]int  // deps[i] lists packages i depends on (all < i)
	artifacts []uint64 // file id of package i's built artifact (0 until built)
	built     []bool
	started   []bool
	inflight  int
	remaining int
	cont      func()
}

func (fr *farmRun) ready(i int) bool {
	for _, d := range fr.deps[i] {
		if !fr.built[d] {
			return false
		}
	}
	return true
}

// runBuildFarm seeds the DAG and starts dispatching. Packages only
// depend on lower-numbered packages, so the graph is acyclic by
// construction and a topological frontier always exists.
func (e *Engine) runBuildFarm(u *userState, cont func()) {
	n := e.p.FarmPackages
	if n <= 0 {
		cont()
		return
	}
	fr := &farmRun{
		u:         u,
		deps:      make([][]int, n),
		artifacts: make([]uint64, n),
		built:     make([]bool, n),
		started:   make([]bool, n),
		remaining: n,
		cont:      cont,
	}
	for i := 1; i < n; i++ {
		fanin := e.p.FarmFaninMax
		if fanin > i {
			fanin = i
		}
		k := e.rng.Intn(fanin + 1)
		seen := make(map[int]bool, k)
		for j := 0; j < k; j++ {
			d := e.rng.Intn(i)
			if !seen[d] {
				seen[d] = true
				fr.deps[i] = append(fr.deps[i], d)
			}
		}
		sort.Ints(fr.deps[i])
	}
	e.farmDispatch(fr)
}

// farmDispatch launches every ready package while worker slots remain.
// Each completion records the artifact, frees the slot and re-dispatches;
// the final link runs when the whole DAG is built.
func (e *Engine) farmDispatch(fr *farmRun) {
	workers := e.p.FarmWorkers
	if workers <= 0 {
		workers = 4
	}
	for i := 0; i < len(fr.deps) && fr.inflight < workers; i++ {
		if fr.started[i] || !fr.ready(i) {
			continue
		}
		fr.started[i] = true
		fr.inflight++
		var depFiles []uint64
		for _, d := range fr.deps[i] {
			if fr.artifacts[d] != 0 {
				depFiles = append(depFiles, fr.artifacts[d])
			}
		}
		ops, rate, artSlot := e.genFarmBuild(fr.u, depFiles)
		// Farm the build out: prefer any idle host (parallelism over
		// cache warmth — the farm wants breadth), falling back to the
		// sticky target, then to building at home.
		host, migrated := e.hosts[fr.u.sessHost], false
		var target int32
		var ok bool
		if e.rng.Bool(0.7) {
			target, ok = e.selectHost(fr.u.sessHost)
		} else {
			target, ok = e.selectSticky(fr.u)
		}
		if ok {
			host, migrated = e.hosts[target], true
		}
		pkg := i
		var pr *program
		done := func() {
			fr.artifacts[pkg] = pr.files[artSlot]
			fr.built[pkg] = true
			fr.inflight--
			fr.remaining--
			if fr.remaining == 0 {
				e.farmLink(fr)
				return
			}
			e.farmDispatch(fr)
		}
		pr = e.launch(fr.u, AppBuildFarm, host, ops, rate, migrated, done)
	}
}

// genFarmBuild is one package build: read the dependency artifacts
// (exported headers/libraries), read the package sources, write the
// package's own artifact.
func (e *Engine) genFarmBuild(u *userState, deps []uint64) ([]op, float64, int) {
	b := e.newBuilder()
	bin := e.reg.RandomBinary(e.rng)
	b.exec(bin, e.p.StackPages)
	e.configReads(b, u)
	for _, d := range deps {
		h := b.open(staticFile(d), true, false)
		b.readAll(h)
		b.close(h)
	}
	nSrc := 2 + e.rng.Intn(4)
	for i := 0; i < nSrc; i++ {
		src, ok := e.reg.RandomSmall(e.rng, u.id)
		if !ok {
			break
		}
		h := b.open(staticFile(src), true, false)
		b.readAll(h)
		b.close(h)
	}
	b.touch(e.rng.Intn(e.p.HeapGrowMax + 1))
	art := b.create(false)
	h := b.open(slotFile(art), false, true)
	size := int64(e.rng.BoundedPareto(e.p.ObjMin, e.p.ObjMax, e.p.ObjAlpha))
	b.writeSeq(h, size)
	b.fsync(h)
	b.close(h)
	return b.exit(), e.p.CompileRate, art
}

// farmLink is the install step at the user's own workstation: read every
// artifact back, write the linked image (replacing the previous farm
// run's output), and clean the intermediate artifacts — the short-lived
// temporaries that keep the lifetime distribution honest.
func (e *Engine) farmLink(fr *farmRun) {
	u := fr.u
	b := e.newBuilder()
	bin := e.reg.RandomBinary(e.rng)
	b.exec(bin, e.p.StackPages)
	for _, a := range fr.artifacts {
		if a == 0 {
			continue
		}
		h := b.open(staticFile(a), true, false)
		b.readAll(h)
		b.close(h)
	}
	out := b.create(false)
	h := b.open(slotFile(out), false, true)
	b.writeSeq(h, int64(e.rng.BoundedPareto(e.p.BinMin, e.p.BinMax, e.p.BinAlpha)))
	b.close(h)
	for _, a := range fr.artifacts {
		if a != 0 {
			b.deleteFile(staticFile(a))
		}
	}
	b.deletePrev()
	b.register(out)
	e.launch(u, AppBuildFarm, e.hosts[u.sessHost], b.exit(), e.p.CompileRate, false, fr.cont)
}
