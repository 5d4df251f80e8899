package fscache

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// A differential oracle for the cache. refCache below is a cache that is
// obviously right — a map from (file, block) to a boxed block, the LRU as
// a plain slice moved by linear search, every total a recount — and
// implements the documented rules and nothing else:
//
//   - replacement takes the first clean block within cleanScanDepth
//     positions of the LRU tail, else the tail itself, dirty or not;
//   - the cleaner looks at every resident block and, for each file (in
//     ascending id) that has a block dirty for the writeback delay or
//     longer, writes back all of that file's dirty blocks in ascending
//     index; Fsync, Recall and RecoverFlush do the same for one file
//     unconditionally;
//   - a block's delayed-write clock starts when it turns dirty and is not
//     restarted by later writes; Delete, Invalidate, Truncate and a crash
//     drop blocks without writeback.
//
// The driver decodes one op stream from bytes and applies it to Cache and
// to refCache in lockstep, comparing every result and, after every op,
// everything the cache lets a caller observe, down to which blocks are
// resident.

type refKey struct {
	file  uint64
	index int64
}

type refBlock struct {
	key     refKey
	dirty   bool
	dirtyAt time.Duration
	lastWr  time.Duration
	lastRef time.Duration
	validHi int64
	dirtyHi int64
}

// refCache is the reference cache.
type refCache struct {
	capacity int
	blocks   map[refKey]*refBlock
	lru      []*refBlock // least recently used first
	delay    time.Duration
	prefetch int
	st       Stats

	// What the op streams made the replacement rule do (coverage, not
	// behaviour): victims that were dirty, and dirty victims taken while a
	// clean block sat beyond the scan depth.
	dirtyVictims, cappedVictims int
}

func newRefCache(capacity int) *refCache {
	return &refCache{capacity: capacity, blocks: map[refKey]*refBlock{}, delay: WritebackDelay}
}

func (r *refCache) touch(b *refBlock, now time.Duration) {
	b.lastRef = now
	r.unlink(b)
	r.lru = append(r.lru, b)
}

func (r *refCache) unlink(b *refBlock) {
	i := slices.Index(r.lru, b)
	r.lru = slices.Delete(r.lru, i, i+1)
}

func (r *refCache) insert(file uint64, index int64, now time.Duration) *refBlock {
	b := &refBlock{key: refKey{file, index}, lastRef: now}
	r.blocks[b.key] = b
	r.lru = append(r.lru, b)
	return b
}

func (r *refCache) drop(b *refBlock) {
	delete(r.blocks, b.key)
	r.unlink(b)
}

func (r *refCache) writeback(b *refBlock, reason CleanReason, now time.Duration) Writeback {
	age := now - b.lastWr
	r.st.Cleaned[reason]++
	r.st.CleanAge[reason].Add(float64(age))
	r.st.BytesWrittenBack += b.dirtyHi
	return Writeback{File: b.key.file, Block: b.key.index, Bytes: b.dirtyHi, Reason: reason, Age: age}
}

// evict replaces one block by the literal rule.
func (r *refCache) evict(now time.Duration, vmTake bool, out []Writeback) []Writeback {
	victim := r.lru[0]
	for depth := 0; depth < cleanScanDepth && depth < len(r.lru); depth++ {
		if !r.lru[depth].dirty {
			victim = r.lru[depth]
			break
		}
	}
	r.st.ReplacementAge.Add(float64(now - victim.lastRef))
	reason := CleanEvict
	if vmTake {
		r.st.ReplacedVM++
		reason = CleanVM
	} else {
		r.st.ReplacedFile++
	}
	if victim.dirty {
		r.dirtyVictims++
		if slices.ContainsFunc(r.lru, func(b *refBlock) bool { return !b.dirty }) {
			r.cappedVictims++
		}
		out = append(out, r.writeback(victim, reason, now))
	}
	r.drop(victim)
	return out
}

func (r *refCache) makeRoom(now time.Duration, out []Writeback) []Writeback {
	for len(r.lru) >= r.capacity {
		out = r.evict(now, false, out)
	}
	return out
}

func (r *refCache) count(attr Attr, all, migrated *int64, n int64) {
	*all += n
	if attr.Migrated {
		*migrated += n
	}
}

func (r *refCache) Read(file uint64, offset, length, fileSize int64, attr Attr, now time.Duration) ReadResult {
	var res ReadResult
	if length <= 0 {
		return res
	}
	end := offset + length
	for idx := offset / BlockSize; idx*BlockSize < end; idx++ {
		start := idx * BlockSize
		r.count(attr, &r.st.All.ReadOps, &r.st.Migrated.ReadOps, 1)
		if attr.Paging {
			r.count(attr, &r.st.All.PagingReadOps, &r.st.Migrated.PagingReadOps, 1)
		}
		b := r.blocks[refKey{file, idx}]
		if b != nil && b.validHi >= min(end-start, BlockSize) {
			r.touch(b, now)
			continue
		}
		r.count(attr, &r.st.All.ReadMisses, &r.st.Migrated.ReadMisses, 1)
		if attr.Paging {
			r.count(attr, &r.st.All.PagingReadMiss, &r.st.Migrated.PagingReadMiss, 1)
		}
		if b == nil {
			res.Evicted = r.makeRoom(now, res.Evicted)
			b = r.insert(file, idx, now)
		} else {
			r.touch(b, now)
		}
		// The block is brought up to the bytes the file holds in it.
		if valid := min(fileSize-start, BlockSize); valid > b.validHi {
			res.MissBytes += valid - b.validHi
			b.validHi = valid
		}
		res.MissBlocks++
		res.MissRuns = append(res.MissRuns, Run{First: idx, N: 1})
		for p := idx + 1; p <= idx+int64(r.prefetch); p++ {
			if p*BlockSize >= fileSize || r.blocks[refKey{file, p}] != nil {
				break
			}
			res.Evicted = r.makeRoom(now, res.Evicted)
			pb := r.insert(file, p, now)
			pb.validHi = min(fileSize-p*BlockSize, BlockSize)
			res.MissBytes += pb.validHi
			res.MissBlocks++
			res.MissRuns = append(res.MissRuns, Run{First: p, N: 1})
		}
	}
	r.count(attr, &r.st.All.BytesRead, &r.st.Migrated.BytesRead, length)
	if attr.Paging {
		r.count(attr, &r.st.All.PagingBytesRead, &r.st.Migrated.PagingBytesRead, length)
	}
	return res
}

func (r *refCache) AddMissBytes(attr Attr, n int64) {
	r.count(attr, &r.st.All.BytesReadMissed, &r.st.Migrated.BytesReadMissed, n)
	if attr.Paging {
		r.count(attr, &r.st.All.PagingBytesMiss, &r.st.Migrated.PagingBytesMiss, n)
	}
}

func (r *refCache) Write(file uint64, offset, length, sizeBefore int64, attr Attr, now time.Duration) WriteResult {
	var res WriteResult
	if length <= 0 {
		return res
	}
	end := offset + length
	for idx := offset / BlockSize; idx*BlockSize < end; idx++ {
		start := idx * BlockSize
		r.count(attr, &r.st.All.WriteOps, &r.st.Migrated.WriteOps, 1)
		lo := max(offset-start, 0)
		hi := min(end-start, BlockSize)
		b := r.blocks[refKey{file, idx}]
		if b != nil {
			r.touch(b, now)
		} else {
			res.Evicted = r.makeRoom(now, res.Evicted)
			b = r.insert(file, idx, now)
			// A write that leaves bytes the server holds in this block
			// unwritten must fetch them first.
			onServer := min(sizeBefore-start, BlockSize)
			leavesSome := lo > 0 || (hi < BlockSize && start+hi < sizeBefore)
			if leavesSome && onServer > 0 && lo < onServer {
				r.count(attr, &r.st.All.WriteFetches, &r.st.Migrated.WriteFetches, 1)
				res.FetchBytes += onServer
				res.FetchBlocks++
				res.FetchRuns = append(res.FetchRuns, Run{First: idx, N: 1})
				b.validHi = onServer
			}
		}
		if !b.dirty {
			b.dirty = true
			b.dirtyAt = now
		}
		b.lastWr = now
		b.validHi = max(b.validHi, hi)
		b.dirtyHi = max(b.dirtyHi, hi)
	}
	r.count(attr, &r.st.All.BytesWritten, &r.st.Migrated.BytesWritten, length)
	return res
}

// fileBlocks returns the resident blocks of file in ascending index.
func (r *refCache) fileBlocks(file uint64) []*refBlock {
	var out []*refBlock
	for _, b := range r.lru {
		if b.key.file == file {
			out = append(out, b)
		}
	}
	slices.SortFunc(out, func(a, b *refBlock) int { return int(a.key.index - b.key.index) })
	return out
}

func (r *refCache) flush(file uint64, reason CleanReason, now time.Duration, out []Writeback) []Writeback {
	for _, b := range r.fileBlocks(file) {
		if b.dirty {
			out = append(out, r.writeback(b, reason, now))
			b.dirty = false
			b.dirtyHi = 0
		}
	}
	return out
}

func (r *refCache) Clean(now time.Duration) []Writeback {
	var out []Writeback
	for _, file := range r.DirtyFiles() {
		due := false
		for _, b := range r.lru {
			if b.key.file == file && b.dirty && now-b.dirtyAt >= r.delay {
				due = true
			}
		}
		if due {
			out = r.flush(file, CleanDelay, now, out)
		}
	}
	return out
}

func (r *refCache) Fsync(file uint64, now time.Duration) []Writeback {
	return r.flush(file, CleanFsync, now, nil)
}

func (r *refCache) Recall(file uint64, now time.Duration) []Writeback {
	return r.flush(file, CleanRecall, now, nil)
}

func (r *refCache) RecoverFlush(file uint64, now time.Duration) []Writeback {
	return r.flush(file, CleanRecover, now, nil)
}

func (r *refCache) Invalidate(file uint64) int {
	bs := r.fileBlocks(file)
	for _, b := range bs {
		r.drop(b)
	}
	return len(bs)
}

func (r *refCache) Delete(file uint64) int64 {
	return r.Truncate(file, 0)
}

func (r *refCache) Truncate(file uint64, newSize int64) int64 {
	var saved int64
	for _, b := range r.fileBlocks(file) {
		start := b.key.index * BlockSize
		if start >= newSize {
			saved += b.dirtyHi
			r.drop(b)
			continue
		}
		keep := newSize - start
		b.validHi = min(b.validHi, keep)
		if b.dirtyHi > keep {
			saved += b.dirtyHi - keep
			b.dirtyHi = keep
		}
	}
	r.st.BytesSavedByDelete += saved
	return saved
}

func (r *refCache) GrowBy(n int) {
	if n > 0 {
		r.capacity += n
	}
}

func (r *refCache) SetCapacity(blocks int, vmTake bool, now time.Duration) []Writeback {
	r.capacity = max(blocks, 1)
	var out []Writeback
	for len(r.lru) > r.capacity {
		out = r.evict(now, vmTake, out)
	}
	return out
}

func (r *refCache) DiscardAll(now time.Duration) CrashLoss {
	var loss CrashLoss
	for _, b := range r.lru {
		loss.Blocks++
		if b.dirty {
			loss.DirtyBlocks++
			loss.DirtyBytes += b.dirtyHi
			loss.MaxDirtyAge = max(loss.MaxDirtyAge, now-b.dirtyAt)
		}
	}
	r.blocks = map[refKey]*refBlock{}
	r.lru = nil
	return loss
}

func (r *refCache) SetWritebackDelay(d time.Duration) {
	if d <= 0 {
		d = WritebackDelay
	}
	r.delay = d
}

func (r *refCache) SetPrefetch(n int) { r.prefetch = max(n, 0) }

func (r *refCache) Capacity() int  { return r.capacity }
func (r *refCache) NumBlocks() int { return len(r.lru) }

func (r *refCache) DirtyBytes() int64 {
	var n int64
	for _, b := range r.lru {
		n += b.dirtyHi
	}
	return n
}

func (r *refCache) DirtyFiles() []uint64 {
	out := []uint64{}
	for _, b := range r.lru {
		if b.dirty && !slices.Contains(out, b.key.file) {
			out = append(out, b.key.file)
		}
	}
	slices.Sort(out)
	return out
}

func (r *refCache) Contains(file uint64, index int64) bool {
	return r.blocks[refKey{file, index}] != nil
}

func (r *refCache) FileDirty(file uint64) bool {
	return slices.Contains(r.DirtyFiles(), file)
}

func (r *refCache) Stats() Stats {
	s := r.st
	s.SizeBytes = int64(len(r.lru)) * BlockSize
	s.DirtyBytes = r.DirtyBytes()
	return s
}

// lockstep applies a byte-encoded op stream to a Cache and a refCache.
type lockstep struct {
	c    *Cache
	r    *refCache
	in   []byte
	now  time.Duration
	size map[uint64]int64 // what the driver says each file holds on the server
	next uint64           // id of the next never-seen file
	op   int
	what string // the op being applied, for the failure message
	diff string // first difference found

	// How often each of the stretch-shaped ops was applied (coverage).
	reached [numStretchOps]int
}

// Capacities from a single block to beyond two scan depths: under the big
// ones a write burst can park more than cleanScanDepth dirty blocks at the
// LRU tail.
var refCapacities = [...]int{1, 2, 3, 5, 8, 16, 64, 520, 1100, 1300}

// Time passes in small steps before most ops, so dirty data usually
// outlives many of them; the jump op crosses the writeback delays.
var refSteps = [...]time.Duration{0, 0, 1, time.Microsecond, time.Millisecond, 100 * time.Millisecond, time.Second, 5 * time.Second}

var refDelays = [...]time.Duration{0, -time.Second, time.Second, 5 * time.Second, 30 * time.Second, 5 * time.Minute}

var refLengths = [...]int64{1, 100, BlockSize, BlockSize + 1, 2 * BlockSize, 3*BlockSize + 17, 10 * BlockSize}

var refWithin = [...]int64{0, 0, 1, 100, 2048, BlockSize - 1}

func (d *lockstep) byte() byte {
	if len(d.in) == 0 {
		return 0
	}
	b := d.in[0]
	d.in = d.in[1:]
	return b
}

// file picks one of six files the ops keep colliding on.
func (d *lockstep) file() uint64 { return uint64(d.byte()%6) + 1 }

// offset decodes a byte offset: a block among the first sixteen, or one
// either side of the dense index's end, plus a position within it.
func (d *lockstep) offset() int64 {
	b := d.byte()
	idx := int64(b % 16)
	if b >= 240 {
		idx = fiDenseMax - 3 + int64(b-240)
	}
	return idx*BlockSize + refWithin[int(d.byte())%len(refWithin)]
}

// span decodes the byte range of a read or write of file: anywhere, or
// one time in four at the file's end — an append, or a read of what the
// last appends left.
func (d *lockstep) span(file uint64, isWrite bool) (offset, length int64) {
	offset = d.offset()
	p := d.byte()
	length = refLengths[int(p>>2)%len(refLengths)]
	if p&3 == 0 {
		offset = d.size[file]
		if !isWrite {
			offset = max(offset-length, 0)
		}
	}
	return offset, length
}

func (d *lockstep) attr() Attr {
	b := d.byte()
	return Attr{Paging: b&3 == 0, Migrated: b&12 == 0}
}

func (d *lockstep) failf(format string, args ...any) {
	if d.diff == "" {
		d.diff = fmt.Sprintf("op %d, %s: ", d.op, d.what) + fmt.Sprintf(format, args...)
	}
}

func (d *lockstep) sameWritebacks(name string, got, want []Writeback) {
	if !slices.Equal(got, want) {
		d.failf("%s\n  cache: %+v\n  ref:   %+v", name, got, want)
	}
}

func (d *lockstep) read(file uint64, offset, length int64, attr Attr) {
	// The file holds at least what is read of it.
	d.size[file] = max(d.size[file], offset+length)
	d.what = fmt.Sprintf("Read(%d, %d, %d, size %d, %+v, now %d)", file, offset, length, d.size[file], attr, d.now)
	got := d.c.Read(file, offset, length, d.size[file], attr, d.now)
	want := d.r.Read(file, offset, length, d.size[file], attr, d.now)
	if got.MissBytes != want.MissBytes || got.MissBlocks != want.MissBlocks || !d.sameRuns(got.MissRuns, want.MissRuns) {
		d.failf("result\n  cache: %+v\n  ref:   %+v", got, want)
	}
	d.sameWritebacks("evicted", got.Evicted, want.Evicted)
	d.c.AddMissBytes(attr, got.MissBytes)
	d.r.AddMissBytes(attr, want.MissBytes)
}

func (d *lockstep) write(file uint64, offset, length int64, attr Attr) {
	before := d.size[file]
	d.what = fmt.Sprintf("Write(%d, %d, %d, size %d, %+v, now %d)", file, offset, length, before, attr, d.now)
	got := d.c.Write(file, offset, length, before, attr, d.now)
	want := d.r.Write(file, offset, length, before, attr, d.now)
	if got.FetchBytes != want.FetchBytes || got.FetchBlocks != want.FetchBlocks || !d.sameRuns(got.FetchRuns, want.FetchRuns) {
		d.failf("result\n  cache: %+v\n  ref:   %+v", got, want)
	}
	d.sameWritebacks("evicted", got.Evicted, want.Evicted)
	d.size[file] = max(before, offset+length)
}

func (d *lockstep) truncate(file uint64, size int64) {
	d.what = fmt.Sprintf("Truncate(%d, %d)", file, size)
	if got, want := d.c.Truncate(file, size), d.r.Truncate(file, size); got != want {
		d.failf("saved %d bytes, reference %d", got, want)
	}
	d.size[file] = min(d.size[file], size)
}

// scan makes one pass over a file nobody has touched before, which pushes
// whatever is clean and older out of the cache.
func (d *lockstep) scan() {
	d.next++
	d.read(d.next, 0, (64+4*int64(d.byte()))*BlockSize, Attr{})
}

// The stretch-shaped ops. A stretch is consecutive blocks of one file
// referenced at one instant: they sit side by side in the LRU list,
// ascending toward the front. These ops make one, grow one across calls,
// or cut into one.
const (
	bootPair     = iota // a program's code, then its data right after it, cold, at one instant, then both again
	midReread           // a sub-range in the middle of a scanned file read again
	midWrite            // one byte written into the middle of a scan
	midTruncate         // a scanned file cut off in its middle, and its new last block read
	appendAcross        // an append past a partially valid last block, then a read across it
	frontHit            // a scan's front-most block read again at a later instant
	numStretchOps
)

var stretchOpNames = [numStretchOps]string{
	"boot's pair", "a mid-scan re-read", "a mid-scan write", "a mid-scan truncate",
	"an append across a partial block", "a later hit on a scan's front",
}

// scanned returns the file the last scan, boot pair or append read, and its
// size, after scanning a fresh one if that holds fewer than three blocks.
func (d *lockstep) scanned() (uint64, int64) {
	if d.size[d.next] < 3*BlockSize {
		d.scan()
	}
	return d.next, d.size[d.next]
}

// inside decodes a byte offset in a block of a file of size bytes that is
// neither its first nor its last.
func (d *lockstep) inside(size int64) int64 {
	blocks := (size + BlockSize - 1) / BlockSize
	return (1+int64(d.byte())%(blocks-2))*BlockSize + refWithin[int(d.byte())%len(refWithin)]
}

// stretch decodes and applies one stretch-shaped op.
func (d *lockstep) stretch() {
	op := int(d.byte()) % numStretchOps
	d.reached[op]++
	switch op {
	case bootPair:
		// The code ends inside a block or at its end. The data starts in
		// the code's last block, or, one time in two, on the block after it
		// with the file growing by it, so that the code's last block is
		// partial when the data joins its stretch. A second run of the
		// program then reads the whole image again, at the same instant.
		d.next++
		code := (1+int64(d.byte()%16))*BlockSize - refWithin[int(d.byte())%len(refWithin)]
		data := (1 + int64(d.byte()%8)) * BlockSize
		start := code
		if d.byte()&1 == 0 {
			d.size[d.next] = code + data
		} else {
			start = (code + BlockSize - 1) / BlockSize * BlockSize
		}
		d.read(d.next, 0, code, Attr{Paging: true})
		d.read(d.next, start, data, Attr{Paging: true})
		d.read(d.next, 0, d.size[d.next], Attr{Paging: true})
	case midReread:
		file, size := d.scanned()
		offset := d.inside(size)
		d.read(file, offset, min(refLengths[int(d.byte())%len(refLengths)], size-offset), d.attr())
	case midWrite:
		file, size := d.scanned()
		d.write(file, d.inside(size), 1, d.attr())
	case midTruncate:
		// Then the new last block is read back whole.
		file, size := d.scanned()
		d.truncate(file, d.inside(size))
		last := (d.size[file] - 1) / BlockSize * BlockSize
		d.read(file, last, d.size[file]-last, d.attr())
	case appendAcross:
		d.next++
		size := (1+int64(d.byte()%8))*BlockSize + 1 + 16*int64(d.byte())
		d.read(d.next, 0, size, Attr{})
		d.now += refSteps[d.byte()%8]
		n := refLengths[int(d.byte())%len(refLengths)]
		d.write(d.next, size, n, d.attr())
		back := 1 + 16*int64(d.byte())
		d.read(d.next, size-back, back+n, d.attr())
	case frontHit:
		file, size := d.scanned()
		d.now += refSteps[2+d.byte()%6]
		last := (size - 1) / BlockSize * BlockSize
		d.read(file, last, size-last, d.attr())
	}
}

// sameRuns reports whether the cache's runs and the reference's runs of
// one name the same blocks in the same order. The cache's must also be
// maximal: no run may end where the next begins.
func (d *lockstep) sameRuns(got, want []Run) bool {
	for i := 1; i < len(got); i++ {
		if got[i-1].First+got[i-1].N == got[i].First {
			d.failf("runs %+v are not maximal", got)
		}
	}
	return slices.Equal(runIndexes(got), runIndexes(want))
}

// runIndexes expands runs to the block indexes they hold.
func runIndexes(runs []Run) []int64 {
	var out []int64
	for _, r := range runs {
		for i := int64(0); i < r.N; i++ {
			out = append(out, r.First+i)
		}
	}
	return out
}

// sameState compares everything observable without an argument, and the
// dirtiness of the files the ops collide on.
func (d *lockstep) sameState() {
	if got, want := d.c.Stats(), d.r.Stats(); got != want {
		d.failf("Stats\n  cache: %+v\n  ref:   %+v", got, want)
	}
	if got, want := d.c.NumBlocks(), d.r.NumBlocks(); got != want {
		d.failf("NumBlocks = %d, reference %d", got, want)
	}
	// With the counts equal, the reference's blocks all being resident
	// makes the two resident sets the same: a wrong victim shows here,
	// wherever in a stretch it sat.
	for _, b := range d.r.lru {
		if !d.c.Contains(b.key.file, b.key.index) {
			d.failf("Contains(%d, %d) = false, reference true", b.key.file, b.key.index)
			break
		}
	}
	if got, want := d.c.Capacity(), d.r.Capacity(); got != want {
		d.failf("Capacity = %d, reference %d", got, want)
	}
	if got, want := d.c.DirtyBytes(), d.r.DirtyBytes(); got != want {
		d.failf("DirtyBytes = %d, reference %d", got, want)
	}
	if got, want := d.c.DirtyFiles(), d.r.DirtyFiles(); !slices.Equal(got, want) {
		d.failf("DirtyFiles = %v, reference %v", got, want)
	}
	for file := uint64(1); file <= 8; file++ {
		if got, want := d.c.FileDirty(file), d.r.FileDirty(file); got != want {
			d.failf("FileDirty(%d) = %v, reference %v", file, got, want)
		}
	}
	if err := d.c.CheckInvariants(); err != nil {
		d.failf("CheckInvariants: %v", err)
	}
}

// run decodes and applies ops until the input is used up or the two
// caches differ, counting them in op.
func (d *lockstep) run() {
	capacity := refCapacities[int(d.byte())%len(refCapacities)]
	d.c, d.r = New(capacity), newRefCache(capacity)
	d.size = map[uint64]int64{}
	d.next = 100
	for ; len(d.in) > 0 && d.diff == ""; d.op++ {
		b := d.byte()
		d.now += refSteps[b>>5]
		switch c := b % 32; {
		case c < 5:
			file := d.file()
			offset, length := d.span(file, false)
			d.read(file, offset, length, d.attr())
		case c < 10:
			file := d.file()
			offset, length := d.span(file, true)
			d.write(file, offset, length, d.attr())
		case c < 13:
			d.stretch()
		case c == 13:
			d.what = fmt.Sprintf("Clean(now %d)", d.now)
			d.sameWritebacks("writebacks", d.c.Clean(d.now), d.r.Clean(d.now))
		case c == 14:
			file := d.file()
			d.what = fmt.Sprintf("Fsync(%d, now %d)", file, d.now)
			d.sameWritebacks("writebacks", d.c.Fsync(file, d.now), d.r.Fsync(file, d.now))
		case c == 15:
			file := d.file()
			d.what = fmt.Sprintf("Recall(%d, now %d)", file, d.now)
			d.sameWritebacks("writebacks", d.c.Recall(file, d.now), d.r.Recall(file, d.now))
		case c == 16:
			file := d.file()
			d.what = fmt.Sprintf("RecoverFlush(%d, now %d)", file, d.now)
			d.sameWritebacks("writebacks", d.c.RecoverFlush(file, d.now), d.r.RecoverFlush(file, d.now))
		case c == 17:
			file := d.file()
			d.what = fmt.Sprintf("Invalidate(%d)", file)
			if got, want := d.c.Invalidate(file), d.r.Invalidate(file); got != want {
				d.failf("dropped %d blocks, reference %d", got, want)
			}
		case c == 18:
			file := d.file()
			d.what = fmt.Sprintf("Delete(%d)", file)
			if got, want := d.c.Delete(file), d.r.Delete(file); got != want {
				d.failf("saved %d bytes, reference %d", got, want)
			}
			d.size[file] = 0
		case c == 19:
			// Cut a little off the end (where appends left the freshest
			// blocks) or, one time in four, anywhere at all.
			file, size := d.file(), d.offset()
			if p := d.byte(); p&3 != 0 {
				size = max(d.size[file]-refLengths[int(p>>2)%len(refLengths)], 0)
			}
			d.truncate(file, size)
		case c == 20:
			// Shrink (or regrow) to a fraction of what the cache holds;
			// zero asks for the one-block floor.
			p := d.byte()
			blocks, vmTake := d.r.NumBlocks()*int(p%5)/4, p&16 != 0
			d.what = fmt.Sprintf("SetCapacity(%d, %v, now %d)", blocks, vmTake, d.now)
			d.sameWritebacks("writebacks", d.c.SetCapacity(blocks, vmTake, d.now), d.r.SetCapacity(blocks, vmTake, d.now))
		case c == 21:
			n := (int(d.byte()%8) - 1) * capacity / 4
			d.what = fmt.Sprintf("GrowBy(%d)", n)
			d.c.GrowBy(n)
			d.r.GrowBy(n)
		case c == 22:
			// A crash one time in four; otherwise time jumps past a delay.
			if p := d.byte(); p < 64 {
				d.what = fmt.Sprintf("DiscardAll(now %d)", d.now)
				if got, want := d.c.DiscardAll(d.now), d.r.DiscardAll(d.now); got != want {
					d.failf("loss %+v, reference %+v", got, want)
				}
			} else {
				d.now += refDelays[2+int(p)%4]
				d.what = fmt.Sprintf("jump to %d", d.now)
			}
		case c == 23:
			delay := refDelays[int(d.byte())%len(refDelays)]
			d.what = fmt.Sprintf("SetWritebackDelay(%d)", delay)
			d.c.SetWritebackDelay(delay)
			d.r.SetWritebackDelay(delay)
		case c == 24:
			n := int(d.byte()%5) - 1
			d.what = fmt.Sprintf("SetPrefetch(%d)", n)
			d.c.SetPrefetch(n)
			d.r.SetPrefetch(n)
		case c < 27:
			// A write burst: hundreds of blocks of one file dirtied at one
			// instant, more than the victim scan will walk past.
			p := d.byte()
			d.write(7+uint64(p&1), 0, (cleanScanDepth-12+int64(p))*BlockSize, Attr{})
		case c < 31:
			d.scan()
		default:
			// The clock steps back: callers are not required to present a
			// monotone now.
			d.now = max(d.now-refSteps[d.byte()%8], 0)
			d.what = fmt.Sprintf("step back to %d", d.now)
		}
		d.sameState()
	}
}

// diffCaches runs one op stream through both caches. The driver it
// returns holds the reference (for its coverage counts), the number of ops
// applied, how often each stretch-shaped op was, and a description of the
// first point where the two caches differ, or "".
func diffCaches(in []byte) *lockstep {
	d := &lockstep{in: in}
	d.run()
	return d
}

// seededCacheOps returns the op stream for one seed.
func seededCacheOps(seed int64) []byte {
	in := make([]byte, 640)
	rand.New(rand.NewSource(seed)).Read(in)
	return in
}

// cappedScan is a hand-written stream: capacity 1100, a burst of 600 dirty
// blocks, then scans until the burst is the LRU tail with clean blocks
// behind it, so that the depth cap decides several victims.
var cappedScan = []byte{8, 25, 100, 27, 255, 27, 255, 27, 10, 27, 10, 27, 10, 13, 27, 10}

func TestCacheMatchesReference(t *testing.T) {
	seeds := int64(300)
	if testing.Short() {
		seeds = 50
	}
	var ops, dirtyVictims, cappedVictims int
	var reached [numStretchOps]int
	for seed := int64(1); seed <= seeds; seed++ {
		d := diffCaches(seededCacheOps(seed))
		if d.diff != "" {
			t.Fatalf("seed %d: Cache and the reference cache differ at %s", seed, d.diff)
		}
		ops += d.op
		dirtyVictims += d.r.dirtyVictims
		cappedVictims += d.r.cappedVictims
		for i, n := range d.reached {
			reached[i] += n
		}
	}
	// The streams must reach the hard cases, or the comparison is empty.
	t.Logf("%d ops, %d dirty victims, %d of them under the depth cap; stretch ops %v", ops, dirtyVictims, cappedVictims, reached)
	if ops < int(seeds)*100 || dirtyVictims < int(seeds) || cappedVictims < int(seeds) {
		t.Fatalf("%d ops, %d dirty victims, %d capped over %d seeds; the op streams exercise too little",
			ops, dirtyVictims, cappedVictims, seeds)
	}
	for i, n := range reached {
		if n < int(seeds) {
			t.Fatalf("%s reached %d times over %d seeds; the op streams exercise too little", stretchOpNames[i], n, seeds)
		}
	}
}

func TestCappedScanStream(t *testing.T) {
	d := diffCaches(cappedScan)
	if d.diff != "" {
		t.Fatalf("Cache and the reference cache differ at %s", d.diff)
	}
	if d.r.cappedVictims == 0 {
		t.Fatalf("the stream never made the depth cap decide a victim (%d dirty victims)", d.r.dirtyVictims)
	}
}

func FuzzCache(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(seededCacheOps(seed))
	}
	f.Add(cappedScan)
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) > 1024 {
			in = in[:1024]
		}
		if d := diffCaches(in); d.diff != "" {
			t.Fatalf("Cache and the reference cache differ at %s", d.diff)
		}
	})
}
