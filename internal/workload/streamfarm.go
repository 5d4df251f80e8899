package workload

import (
	"slices"
	"time"
)

// Post-1991 application generators: the media-streaming client and the
// package-build farm, whose DAG the build runner (engine.go) dispatches
// and links as it does pmake's. Both are disabled at the default
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

// runBuildFarm seeds a package-build farm's dependency DAG and hands it
// to the build runner. Packages only depend on lower-numbered packages, so
// the graph is acyclic by construction and a topological frontier always
// exists. The farm wants breadth over cache warmth: most packages go to
// any idle host, the rest to the sticky target.
func (e *Engine) runBuildFarm(u *userState, cont func()) {
	n := e.p.FarmPackages
	if n <= 0 {
		cont()
		return
	}
	deps := make([][]int, n)
	for i := 1; i < n; i++ {
		fanin := e.p.FarmFaninMax
		if fanin > i {
			fanin = i
		}
		k := e.rng.Intn(fanin + 1)
		for j := 0; j < k; j++ {
			if d := e.rng.Intn(i); !slices.Contains(deps[i], d) {
				deps[i] = append(deps[i], d)
			}
		}
		slices.Sort(deps[i])
	}
	workers := e.p.FarmWorkers
	if workers <= 0 {
		workers = 4
	}
	e.runBuild(&buildRun{u: u, app: AppBuildFarm, deps: deps, workers: workers, stickyP: 0.3, cont: cont})
}

// genFarmBuild is one package build: read the dependencies' artifacts
// (exported headers/libraries), read the package sources, write the
// package's own artifact, which it returns.
func (e *Engine) genFarmBuild(u *userState, deps []fileRef) ([]op, float64, []fileRef) {
	b := e.newBuilder()
	bin := e.reg.RandomBinary(e.rng)
	b.exec(bin, e.p.StackPages)
	e.configReads(b, u)
	for _, d := range deps {
		h := b.open(d, true, false)
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
	return b.exit(), e.p.CompileRate, []fileRef{slotFile(art)}
}
