package workload

import (
	"time"
)

// Application program generators. Each returns the op sequence for one
// process plus its processing rate; sizes are drawn at generation time
// from the Params distributions. The shapes here are what reproduce the
// paper's Section 4 structure: whole-file sequential reads dominate,
// writes create short-lived temporaries, a few applications reposition
// randomly, and the big-sim users move tens of megabytes per run.

// configReads prepends the startup file reads every real program performs
// (rc files, configuration, shared setup) — small, whole-file, read-only
// accesses, which is why read-only dominates the Table 3 access mix.
func (e *Engine) configReads(b *progBuilder, u *userState) {
	n := 2 + e.rng.Intn(3)
	for i := 0; i < n; i++ {
		var f uint64
		var ok bool
		if e.rng.Bool(0.5) {
			f, ok = e.reg.RandomSmall(e.rng, u.id)
		} else {
			f, ok = e.reg.RandomShared(e.rng, u.group)
		}
		if !ok {
			continue
		}
		h := b.open(staticFile(f), true, false)
		if e.rng.Bool(0.3) {
			// Prefix-only read (head, grep with early exit): a sequential
			// but not whole-file access — Table 3's "other sequential".
			b.read(h, int64(e.rng.LogNormal(e.p.SmallMedian/2, e.p.SmallSigma)+1))
		} else {
			b.readAll(h)
		}
		b.close(h)
	}
}

// logAppend appends a small record to the user's build/activity log: a
// write-only access that is sequential but not whole-file. Logs that have
// grown past the rotation threshold are truncated and restarted — without
// rotation the file population would grow without bound and the size
// distributions would drift over the traced day.
func (e *Engine) logAppend(b *progBuilder, u *userState) {
	f, ok := e.reg.RandomSmall(e.rng, u.id)
	if !ok {
		return
	}
	if e.hosts[u.sessHost].FileSize(f) > 48*1024 {
		b.truncate(staticFile(f))
		hw := b.open(staticFile(f), false, true)
		b.writeSeq(hw, int64(e.rng.LogNormal(e.p.SmallMedian, e.p.SmallSigma))+1)
		b.close(hw)
		return
	}
	h := b.open(staticFile(f), false, true)
	b.seek(h, seekEnd)
	b.write(h, int64(e.rng.Range(100, 1200)))
	b.close(h)
}

// genEdit models an interactive editing session: browse a couple of
// files, read the target whole, think, save (truncate + rewrite), with a
// short-lived backup file.
func (e *Engine) genEdit(u *userState) ([]op, float64) {
	b := e.newBuilder()
	bin := e.reg.RandomBinary(e.rng)
	b.exec(bin, e.p.StackPages)
	e.configReads(b, u)
	file, ok := e.reg.RandomSmall(e.rng, u.id)
	if !ok {
		return b.exit(), e.p.EditRate
	}
	h := b.open(staticFile(file), true, false)
	size := int64(e.rng.LogNormal(e.p.SmallMedian, e.p.SmallSigma)) + 1
	b.readSeq(h, size)
	// The editor holds the file open while the user looks at it — the
	// long tail of Figure 3's open-duration distribution.
	b.think(e.rng.ExpDur(4 * time.Second))
	b.close(h)
	b.think(e.rng.ExpDur(e.p.ThinkMean))
	if e.rng.Bool(0.6) {
		// Save: write a backup copy, rewrite the file in place, then
		// remove the backup within seconds — the short-lived files that
		// dominate the Figure 4 lifetime distribution.
		bak := b.create(false)
		hb := b.open(slotFile(bak), false, true)
		b.writeSeq(hb, size)
		b.close(hb)
		b.truncate(staticFile(file))
		hw := b.open(staticFile(file), false, true)
		newSize := size + int64(e.rng.Normal(0, float64(size)/20))
		if newSize < 64 {
			newSize = 64
		}
		b.writeSeq(hw, newSize)
		b.close(hw)
		b.think(e.rng.ExpDur(5 * time.Second))
		b.deleteFile(slotFile(bak))
	}
	return b.exit(), e.p.EditRate
}

// genCompile models one compiler invocation: read sources whole and
// write an object temporary per source. With link it then links them
// together with objs, the objects other processes left (a build run's
// targets). It returns the objects it leaves unlinked.
func (e *Engine) genCompile(u *userState, link bool, objs []fileRef) ([]op, float64, []fileRef) {
	b := e.newBuilder()
	bin := e.reg.RandomBinary(e.rng)
	b.exec(bin, e.p.StackPages)
	nSrc := 1 + e.rng.Intn(4)
	for i := 0; i < nSrc; i++ {
		src, ok := e.reg.RandomSmall(e.rng, u.id)
		if !ok {
			break
		}
		hs := b.open(staticFile(src), true, false)
		b.readSeq(hs, int64(e.rng.LogNormal(e.p.SmallMedian, e.p.SmallSigma))+1)
		b.close(hs)
		// The preprocessor reads a pile of headers for every source file.
		nHdr := 2 + e.rng.Intn(6)
		for j := 0; j < nHdr; j++ {
			hdr, ok := e.reg.RandomSmall(e.rng, u.id)
			if e.rng.Bool(0.4) {
				hdr, ok = e.reg.RandomShared(e.rng, u.group)
			}
			if !ok {
				continue
			}
			hh := b.open(staticFile(hdr), true, false)
			b.readAll(hh)
			b.close(hh)
		}
		b.touch(e.rng.Intn(e.p.HeapGrowMax + 1))
		objSize := int64(e.rng.BoundedPareto(e.p.ObjMin, e.p.ObjMax, e.p.ObjAlpha))
		// cc writes an assembler temporary, the assembler reads it and
		// produces the object, and the temporary dies seconds later —
		// the bulk of the bytes that never survive the 30-second
		// delayed-write window.
		asm := b.create(false)
		ha := b.open(slotFile(asm), false, true)
		b.writeSeq(ha, objSize)
		b.close(ha)
		hra := b.open(slotFile(asm), true, false)
		b.readSeq(hra, objSize)
		b.close(hra)
		obj := b.create(false)
		ho := b.open(slotFile(obj), false, true)
		b.writeSeq(ho, objSize)
		b.close(ho)
		b.deleteFile(slotFile(asm))
		objs = append(objs, slotFile(obj))
	}
	if link && len(objs) > 0 {
		e.link(b, u, objs)
		objs = nil
	}
	return b.exit(), e.p.CompileRate, objs
}

// link is a build's last step: read every object back, replace the
// previous build's binary, and delete the objects. genCompile emits it,
// for a compile-and-link program and for the build runner's link over its
// targets' objects alike.
func (e *Engine) link(b *progBuilder, u *userState, objs []fileRef) {
	b.think(e.rng.ExpDur(2 * time.Second))
	for _, o := range objs {
		h := b.open(o, true, false)
		b.readAll(h)
		b.close(h)
	}
	// The previous build's binary is replaced (deleted) now — its
	// bytes lived from one build to the next, which is what keeps the
	// byte-weighted lifetime distribution long-tailed.
	b.deletePrev()
	binSize := int64(e.rng.BoundedPareto(e.p.BinMin, e.p.BinMax, e.p.BinAlpha))
	out := b.create(false)
	hb := b.open(slotFile(out), false, true)
	b.writeSeq(hb, binSize)
	if e.rng.Bool(0.25) {
		b.fsync(hb)
	}
	b.close(hb)
	b.register(out)
	// Object temporaries die young.
	for _, o := range objs {
		b.deleteFile(o)
	}
	// The produced binary is read back (installed, executed, nm'd)
	// once or twice.
	if e.rng.Bool(0.6) {
		ht := b.open(slotFile(out), true, false)
		b.readSeq(ht, binSize)
		b.close(ht)
	}
	e.logAppend(b, u)
}

// genKernelRead models the OS group inspecting kernel images (nm, gdb):
// whole-file reads of 2-10 MB binaries.
func (e *Engine) genKernelRead(u *userState) ([]op, float64) {
	b := e.newBuilder()
	bin := e.reg.RandomBinary(e.rng)
	b.exec(bin, e.p.StackPages)
	if len(e.reg.KernelImages) > 0 {
		img := e.reg.KernelImages[e.rng.Intn(len(e.reg.KernelImages))]
		h := b.open(staticFile(img), true, false)
		if e.rng.Bool(0.3) {
			// Partial inspection (head of the symbol table): a large
			// sequential-but-not-whole-file read.
			b.readSeq(h, int64(e.rng.Range(0.3, 3)*(1<<20)))
		} else {
			b.readAll(h) // clamped to file size at runtime
		}
		b.close(h)
	}
	return b.exit(), e.p.SimRate
}

// genMail models reading the mailbox whole and appending a message.
func (e *Engine) genMail(u *userState) ([]op, float64) {
	b := e.newBuilder()
	bin := e.reg.RandomBinary(e.rng)
	b.exec(bin, e.p.StackPages)
	box, _ := e.reg.Mailbox(u.id)
	h := b.open(staticFile(box), true, false)
	b.readAll(h)
	// The mail reader keeps the box open while the user reads.
	b.think(e.rng.ExpDur(5 * time.Second))
	b.close(h)
	// Read messages are usually deleted or filed: the mailbox shrinks
	// back, so it does not grow without bound across the day.
	if e.hosts[u.sessHost].FileSize(box) > 128*1024 && e.rng.Bool(0.7) {
		b.truncate(staticFile(box))
		hw := b.open(staticFile(box), false, true)
		b.writeSeq(hw, int64(e.rng.LogNormal(e.p.MailMedian/2, e.p.MailSigma))+1)
		b.close(hw)
	}
	b.think(e.rng.ExpDur(e.p.ThinkMean / 2))
	if e.rng.Bool(0.7) {
		hw := b.open(staticFile(box), false, true)
		b.seek(hw, seekEnd)
		b.write(hw, int64(e.rng.Range(300, 4000)))
		// Mail is precious: the delivery agent forces it to disk.
		if e.rng.Bool(0.9) {
			b.fsync(hw)
		}
		b.close(hw)
	}
	return b.exit(), e.p.EditRate
}

// genDoc models document production: read sources, write a formatted
// output of DocMedian scale, optionally preview it.
func (e *Engine) genDoc(u *userState) ([]op, float64) {
	b := e.newBuilder()
	bin := e.reg.RandomBinary(e.rng)
	b.exec(bin, e.p.StackPages)
	for i := 0; i < 1+e.rng.Intn(3); i++ {
		src, ok := e.reg.RandomSmall(e.rng, u.id)
		if !ok {
			break
		}
		h := b.open(staticFile(src), true, false)
		b.readSeq(h, int64(e.rng.LogNormal(e.p.SmallMedian, e.p.SmallSigma))+1)
		b.close(h)
	}
	b.deletePrev()
	outSize := int64(e.rng.LogNormal(e.p.DocMedian, e.p.DocSigma)) + 1
	out := b.create(false)
	hw := b.open(slotFile(out), false, true)
	b.writeSeq(hw, outSize)
	if e.rng.Bool(0.3) {
		b.fsync(hw)
	}
	b.close(hw)
	b.register(out)
	if e.rng.Bool(0.7) {
		b.think(e.rng.ExpDur(3 * time.Second))
		hp := b.open(slotFile(out), true, false)
		b.readSeq(hp, outSize)
		b.close(hp)
	}
	return b.exit(), e.p.EditRate
}

// genSim models an ordinary simulation run: read an input, compute with
// heap growth, write an output, postprocess (read whole) and delete it.
func (e *Engine) genSim(u *userState, outputMB float64) ([]op, float64) {
	b := e.newBuilder()
	bin := e.reg.RandomBinary(e.rng)
	b.exec(bin, e.p.StackPages)
	// Simulators read their data set whole.
	if in, ok := e.reg.RandomData(e.rng, u.id); ok {
		h := b.open(staticFile(in), true, false)
		b.readAll(h)
		b.close(h)
	}
	// Compute phase with VM pressure.
	for i := 0; i < 3; i++ {
		b.touch(e.rng.Intn(e.p.HeapGrowMax + 1))
		b.think(e.rng.ExpDur(5 * time.Second))
	}
	b.deletePrev()
	outSize := int64(e.rng.Range(0.5, 1.5) * outputMB * (1 << 20))
	if outSize < 4096 {
		outSize = 4096
	}
	out := b.create(false)
	hw := b.open(slotFile(out), false, true)
	b.writeSeq(hw, outSize)
	if e.rng.Bool(0.25) {
		b.fsync(hw)
	}
	b.close(hw)
	b.register(out)
	if e.rng.Bool(0.3) {
		// Append a results chunk to an accumulating data file: a large
		// write-only access that is sequential but not whole-file. Data
		// files past ~2 MB are truncated back (old results archived).
		if res, ok := e.reg.RandomData(e.rng, u.id); ok {
			if e.hosts[u.sessHost].FileSize(res) > 2<<20 {
				b.truncate(staticFile(res))
			}
			ha := b.open(staticFile(res), false, true)
			b.seek(ha, seekEnd)
			b.writeSeq(ha, int64(e.rng.Range(0.2, 0.8)*float64(outSize)))
			b.close(ha)
		}
	}
	if e.rng.Bool(0.7) {
		b.think(e.rng.ExpDur(10 * time.Second))
		hp := b.open(slotFile(out), true, false)
		b.readSeq(hp, outSize)
		b.close(hp)
	}
	return b.exit(), e.p.SimRate
}

// genBigSim is the traces 3-4 class-project workload: a simulator that
// reads ~20 MB input files and a cache simulation producing a ~10 MB file
// that is postprocessed and deleted, run repeatedly all day.
func (e *Engine) genBigSim(u *userState, inputs []uint64) ([]op, float64) {
	b := e.newBuilder()
	bin := e.reg.RandomBinary(e.rng)
	b.exec(bin, e.p.StackPages)
	if len(inputs) > 0 {
		in := inputs[e.rng.Intn(len(inputs))]
		h := b.open(staticFile(in), true, false)
		b.readSeq(h, int64(e.p.SimInputMB*(1<<20)))
		b.close(h)
	}
	for i := 0; i < 5; i++ {
		// Class-project simulators have multi-megabyte heaps: this is the
		// memory pressure that trades pages against the file cache and
		// produces backing-file traffic when the machine is reclaimed.
		b.touch(200 + e.rng.Intn(800))
		b.think(e.rng.ExpDur(10 * time.Second))
	}
	b.deletePrev()
	outSize := int64(e.rng.Range(0.8, 1.2) * e.p.SimOutputMB * (1 << 20))
	out := b.create(false)
	hw := b.open(slotFile(out), false, true)
	b.writeSeq(hw, outSize)
	b.close(hw)
	b.register(out)
	b.think(e.rng.ExpDur(5 * time.Second))
	hp := b.open(slotFile(out), true, false)
	b.readSeq(hp, outSize)
	b.close(hp)
	return b.exit(), e.p.SimRate
}

// genRandomDB models database-style access: seek-read and seek-write of
// small records, the source of the Random rows of Table 3 and of the
// reposition counts in Table 1.
func (e *Engine) genRandomDB(u *userState) ([]op, float64) {
	b := e.newBuilder()
	bin := e.reg.RandomBinary(e.rng)
	b.exec(bin, e.p.StackPages)
	// Databases live in the user's larger data files; in-place record
	// updates of blocks that have fallen out of the cache are what
	// produce Table 6's write fetches.
	file, ok := e.reg.RandomData(e.rng, u.id)
	if !ok {
		return b.exit(), e.p.EditRate
	}
	h := b.open(staticFile(file), true, true)
	nOps := 4 + e.rng.Intn(12)
	dirty := false
	for i := 0; i < nOps; i++ {
		b.seek(h, seekRandom)
		if e.rng.Bool(0.7) {
			b.read(h, int64(e.rng.Range(64, 2048)))
		} else {
			b.write(h, int64(e.rng.Range(64, 1024)))
			dirty = true
		}
		b.think(time.Duration(e.rng.Range(50, 400)) * time.Millisecond)
	}
	if dirty && e.rng.Bool(0.9) {
		// Databases sync their updates for durability.
		b.fsync(h)
	}
	b.close(h)
	return b.exit(), e.p.EditRate
}

// genDirList models ls-style naming traffic: directory reads, which
// bypass client caches entirely in Sprite.
func (e *Engine) genDirList(u *userState) ([]op, float64) {
	b := e.newBuilder()
	bin := e.reg.RandomBinary(e.rng)
	b.exec(bin, e.p.StackPages)
	dirs := []uint64{e.reg.Dir(u.id), e.reg.GroupDirs[u.group]}
	for _, d := range dirs {
		if d == 0 {
			continue
		}
		h := b.open(staticFile(d), true, false)
		b.readAll(h)
		b.close(h)
	}
	return b.exit(), e.p.EditRate
}

// genSharedLogWrite appends to a group-shared file, holding it open for a
// few seconds — when two of these (or a write and a read) overlap across
// machines, concurrent write-sharing results.
func (e *Engine) genSharedLogWrite(u *userState, file uint64) ([]op, float64) {
	b := e.newBuilder()
	bin := e.reg.RandomBinary(e.rng)
	b.exec(bin, e.p.StackPages)
	// Shared logs rotate once they pass the threshold, like any log.
	if e.hosts[u.sessHost].FileSize(file) > 64*1024 {
		b.truncate(staticFile(file))
	}
	h := b.open(staticFile(file), true, true)
	b.seek(h, seekEnd)
	// A burst of appends by the same client: under token consistency the
	// first write acquires the token and the rest are free, while Sprite
	// passes every one through — the paper's "token can win" case.
	nApp := 4 + e.rng.Intn(7)
	for i := 0; i < nApp; i++ {
		b.write(h, int64(e.rng.Range(300, 2500)))
		b.think(time.Duration(e.rng.Range(1000, 3000)) * time.Millisecond)
	}
	b.think(e.rng.Jitter(e.p.SharedLogOpenHold, 0.5))
	if e.rng.Bool(0.3) {
		// Occasional fine-grained update pattern — the regime that makes
		// token-based consistency thrash (Section 5.6).
		b.seek(h, seekRandom)
		b.read(h, int64(e.rng.Range(100, 2000)))
		b.write(h, int64(e.rng.Range(100, 1000)))
	}
	b.close(h)
	return b.exit(), e.p.EditRate
}

// genGrep is the utility burst: a shell pipeline sweeping many small
// files, reading each whole or just a prefix, occasionally spilling a tiny
// sort temporary that dies immediately. It contributes most of the trace's
// opens while moving almost no bytes — the burstiness signature of Table 2.
func (e *Engine) genGrep(u *userState) ([]op, float64) {
	b := e.newBuilder()
	bin := e.reg.RandomBinary(e.rng)
	b.exec(bin, e.p.StackPages)
	if e.rng.Bool(0.4) {
		// find(1) walks a directory first.
		d := e.reg.Dir(u.id)
		if e.rng.Bool(0.4) {
			d = e.reg.GroupDirs[u.group]
		}
		if d != 0 {
			hd := b.open(staticFile(d), true, false)
			b.readAll(hd)
			b.close(hd)
		}
	}
	n := 8 + e.rng.Intn(10)
	for i := 0; i < n; i++ {
		var f uint64
		var ok bool
		switch e.rng.Intn(3) {
		case 0:
			f, ok = e.reg.RandomShared(e.rng, u.group)
		default:
			f, ok = e.reg.RandomSmall(e.rng, u.id)
		}
		if !ok {
			continue
		}
		h := b.open(staticFile(f), true, false)
		if e.rng.Bool(0.55) {
			b.read(h, int64(e.rng.LogNormal(e.p.SmallMedian/2, e.p.SmallSigma))+1)
		} else {
			b.readAll(h)
		}
		if e.rng.Bool(0.3) {
			// The tool chews on the file before moving on (grep through a
			// big match list, wc, diff): the open outlives a quarter second.
			b.think(time.Duration(e.rng.Range(100, 600)) * time.Millisecond)
		}
		if e.rng.Bool(0.08) {
			// Occasionally the pipeline ends in a pager and the user reads.
			b.think(e.rng.ExpDur(4 * time.Second))
		}
		b.close(h)
	}
	if e.rng.Bool(0.25) {
		// The shell appends to the user's history file.
		e.logAppend(b, u)
	}
	if e.rng.Bool(0.35) {
		// sort(1) spills a temporary and removes it seconds later.
		tmp := b.create(false)
		ht := b.open(slotFile(tmp), false, true)
		b.writeSeq(ht, int64(e.rng.Range(2048, 32768)))
		b.close(ht)
		hr := b.open(slotFile(tmp), true, false)
		b.readAll(hr)
		b.close(hr)
		b.deleteFile(slotFile(tmp))
	}
	return b.exit(), e.p.CompileRate
}

// genSharedRead consumes a group-shared file: a whole-file read followed,
// tail(1)-style, by a few polls of the recent data while the producer may
// still be appending. It is the consumer side of sequential write-sharing
// (forcing recalls within 30 s of a write), the overlap that creates
// concurrent write-sharing, and — under polling consistency — the reader
// that would see stale data.
func (e *Engine) genSharedRead(u *userState, file uint64) ([]op, float64) {
	b := e.newBuilder()
	bin := e.reg.RandomBinary(e.rng)
	b.exec(bin, e.p.StackPages)
	h := b.open(staticFile(file), true, false)
	b.readAll(h)
	polls := 1 + e.rng.Intn(3)
	for i := 0; i < polls; i++ {
		b.think(time.Duration(e.rng.Range(3000, 8000)) * time.Millisecond)
		b.seek(h, seekRandom)
		b.read(h, int64(e.rng.Range(500, 4000)))
	}
	b.close(h)
	return b.exit(), e.p.EditRate
}
