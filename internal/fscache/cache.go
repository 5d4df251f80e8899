package fscache

import (
	"fmt"
	"slices"
	"time"

	"spritefs/internal/stats"
)

// BlockSize is the cache block size: 4 Kbytes, as in Sprite.
const BlockSize = 4096

// A block keeps its byte watermarks in an int16.
const _ = int16(BlockSize)

// CleanReason says why a dirty block was written back (Table 9's rows),
// plus the internal eviction case the paper notes "almost never" happens.
type CleanReason uint8

// Cleaning reasons.
const (
	CleanDelay   CleanReason = iota // 30-second delayed-write expiry
	CleanFsync                      // application requested write-through
	CleanRecall                     // server recalled dirty data for another client
	CleanVM                         // page handed to the virtual memory system
	CleanEvict                      // LRU evicted a dirty block (rare)
	CleanRecover                    // dirty data replayed to a restarted server
	NumCleanReasons
)

var cleanNames = [NumCleanReasons]string{"delay", "fsync", "recall", "vm", "evict", "recover"}

// String returns the reason name.
func (r CleanReason) String() string {
	if r < NumCleanReasons {
		return cleanNames[r]
	}
	return fmt.Sprintf("reason(%d)", uint8(r))
}

// Attr describes the context of a cache access for the per-category
// counters: paging accesses are VM traffic routed through the file cache
// (code and initialized-data pages), and migrated accesses are performed
// by migrated processes (Table 6's right column).
type Attr struct {
	Paging   bool
	Migrated bool
}

// Writeback describes one dirty block the caller must ship to the server.
type Writeback struct {
	File   uint64
	Block  int64 // block index within the file
	Bytes  int64 // bytes to transfer (block start through high-water mark)
	Reason CleanReason
	Age    time.Duration // time since the block was last written
}

// Run is a stretch of consecutive block indexes of one file: First,
// First+1, ..., First+N-1.
type Run struct {
	First int64
	N     int64
}

// appendBlock adds block idx to runs, extending the last run when idx
// follows it.
func appendBlock(runs []Run, idx int64) []Run {
	if n := len(runs); n > 0 && runs[n-1].First+runs[n-1].N == idx {
		runs[n-1].N++
		return runs
	}
	return append(runs, Run{First: idx, N: 1})
}

// ReadResult reports the server traffic a read implies. The MissRuns and
// Evicted slices alias per-cache scratch buffers: they are valid until
// the next Read or Write on the same cache and must be consumed (or
// copied) before then.
type ReadResult struct {
	MissBytes  int64 // bytes that must be fetched from the server
	MissBlocks int   // number of blocks fetched
	// MissRuns are the blocks fetched, ascending, as maximal runs (they
	// drive the server cache model).
	MissRuns []Run
	Evicted  []Writeback
}

// WriteResult reports the server traffic a write implies. The FetchRuns
// and Evicted slices alias per-cache scratch buffers, like ReadResult's.
type WriteResult struct {
	FetchBytes  int64 // write-fetch bytes (partial writes of non-resident blocks)
	FetchBlocks int
	FetchRuns   []Run // the blocks write-fetched, as maximal runs
	Evicted     []Writeback
}

// OpStats is the per-category counter block. One instance counts all
// traffic; a second counts the migrated-process subset.
type OpStats struct {
	ReadOps         int64 // block-granularity cache read operations
	ReadMisses      int64
	BytesRead       int64 // bytes requested by applications
	BytesReadMissed int64 // bytes fetched from the server to satisfy reads
	WriteOps        int64
	WriteFetches    int64
	BytesWritten    int64 // bytes written into the cache by applications
	PagingReadOps   int64
	PagingReadMiss  int64
	PagingBytesRead int64 // portion of BytesRead that was paging traffic
	PagingBytesMiss int64 // portion of BytesReadMissed that was paging
}

// Stats is a snapshot of all cache counters.
type Stats struct {
	All      OpStats
	Migrated OpStats

	BytesWrittenBack   int64 // dirty bytes shipped to the server
	BytesSavedByDelete int64 // dirty bytes discarded before writeback

	ReplacedFile   int64         // LRU victims replaced by other file data
	ReplacedVM     int64         // blocks handed to the virtual memory system
	ReplacementAge stats.Welford // time since last reference, at replacement

	Cleaned  [NumCleanReasons]int64
	CleanAge [NumCleanReasons]stats.Welford // time since last write, at cleaning

	SizeBytes  int64
	DirtyBytes int64
}

// Blocks live by value in a free-list arena (Cache.chunks) and are
// referred to by int32 arena slots everywhere: the LRU list is intrusive
// (prev/next slot links, front = most recent) and the per-file index maps
// block index -> slot. Steady-state Read/Write therefore performs zero
// allocations: a miss pops a recycled slot, an eviction pushes one back.
// A block never moves once allocated, so a *block stays valid for as long
// as its slot is resident.
//
// A block holds what every resident block needs, in 40 bytes; a client
// cache is overwhelmingly clean, so what only a dirty block needs — its two
// write times — lives apart, in dirtyTimes.
type block struct {
	file    uint64
	index   int64
	prev    int32         // LRU link toward the front (more recent)
	next    int32         // LRU link toward the back; doubles as the free-list link
	lastRef time.Duration // when the block was last referenced
	// passed == Cache.scanEpoch marks a block of the dirty run at the LRU
	// tail that the victim scan has already walked past (see evictOne).
	passed  uint32
	validHi int16 // valid bytes from block start (watermark)
	dirtyHi int16 // dirty bytes from block start (writeback size); the block is dirty iff nonzero
}

// dirty reports whether the block holds bytes awaiting writeback.
func (b *block) dirty() bool { return b.dirtyHi != 0 }

// dirtyTimes is the state of a dirty block that a clean one does without.
// It is written whole when a block turns dirty and means nothing while the
// block is clean: a slot's next tenant, or the same block dirtied again,
// never reads what was left there.
type dirtyTimes struct {
	dirtyAt time.Duration // when the block first became dirty
	lastWr  time.Duration // when the block was last written
}

// fiDenseMax bounds the dense per-file index: files up to 32k blocks
// (128 MB) index a slice directly; rarer huge offsets fall back to a map.
const fiDenseMax = 1 << 15

// fileIndex maps one file's block indices to arena slots.
type fileIndex struct {
	dense  []int32         // slot+1 per block index, 0 = absent
	sparse map[int64]int32 // slots for block indices >= fiDenseMax
	n      int             // resident blocks of this file
	dirty  int             // dirty resident blocks of this file

	// oldestDirty is a lower bound on dirtyAt over the file's dirty blocks
	// (meaningful while dirty > 0): the minimum over every dirtying since
	// the file last had none. A dirty block that leaves does not raise it,
	// so it can be stale-low; Clean uses it only to skip the file and
	// tightens it whenever it scans the blocks anyway.
	oldestDirty time.Duration
}

// get returns the arena slot holding block idx, or -1.
func (fi *fileIndex) get(idx int64) int32 {
	if idx < int64(len(fi.dense)) {
		return fi.dense[idx] - 1
	}
	if idx < fiDenseMax {
		return -1
	}
	s, ok := fi.sparse[idx]
	if !ok {
		return -1
	}
	return s
}

// reserve makes the dense part cover block indices up to last, capped at
// fiDenseMax. A cold read reserves up to its last block, so the index is
// sized once, in one allocation, rather than grown a block at a time; a
// reservation just past the end at least doubles the capacity. Entries
// beyond len(dense) are zero: nothing is ever written there.
func (fi *fileIndex) reserve(last int64) {
	n := min(last+1, fiDenseMax)
	if n <= int64(len(fi.dense)) {
		return
	}
	if n > int64(cap(fi.dense)) {
		grown := make([]int32, n, max(n, min(2*int64(cap(fi.dense)), fiDenseMax)))
		copy(grown, fi.dense)
		fi.dense = grown
	}
	fi.dense = fi.dense[:n]
}

// set records block idx at arena slot s. idx must be absent and, if dense,
// reserved.
func (fi *fileIndex) set(idx int64, s int32) {
	if idx < fiDenseMax {
		fi.dense[idx] = s + 1
	} else {
		if fi.sparse == nil {
			fi.sparse = make(map[int64]int32)
		}
		fi.sparse[idx] = s
	}
	fi.n++
}

// del removes block idx from the index. idx must be present.
func (fi *fileIndex) del(idx int64) {
	if idx < fiDenseMax {
		fi.dense[idx] = 0
	} else {
		delete(fi.sparse, idx)
	}
	fi.n--
}

// appendIndices appends the file's resident block indices to buf in
// ascending order. The dense part is already ordered; sparse indices are
// all larger, so sorting the appended tail suffices.
func (fi *fileIndex) appendIndices(buf []int64) []int64 {
	for idx, v := range fi.dense {
		if v != 0 {
			buf = append(buf, int64(idx))
		}
	}
	if len(fi.sparse) > 0 {
		start := len(buf)
		for idx := range fi.sparse {
			buf = append(buf, idx)
		}
		slices.Sort(buf[start:])
	}
	return buf
}

// chunkBlocks is the arena's growth unit: slot s lives at
// chunks[s>>chunkShift][s&(chunkBlocks-1)].
const (
	chunkShift  = 6
	chunkBlocks = 1 << chunkShift
)

// Cache is one client's (or server's) block cache.
type Cache struct {
	capacity int // blocks
	// The block arena, in fixed-size chunks: growing it appends one chunk
	// and never copies or re-clears a block, so a cold cache allocates what
	// it ends up holding plus at most one chunk of slack. Slots below
	// nslots have been handed out; each is resident or on the free list.
	chunks []*[chunkBlocks]block
	// The dirty blocks' write times, parallel to chunks: slot s has its
	// dirtyTimes at dtimes[s>>chunkShift][s&(chunkBlocks-1)]. A chunk of
	// it is made at the first dirtying inside that chunk of the arena, so
	// the slice is short or empty, and holds nils, wherever nothing was ever
	// written; a cache that is only read never allocates any of it.
	dtimes     []*[chunkBlocks]dirtyTimes
	nslots     int32
	freeB      int32 // free-slot list head through next, -1 when empty
	lruFront   int32 // most recently used, -1 when empty
	lruBack    int32 // least recently used
	files      map[uint64]*fileIndex
	fiFree     []*fileIndex // recycled (emptied) file indexes
	nblocks    int
	ndirty     int
	dirtyBytes int64
	wbDelay    time.Duration // 0 = default WritebackDelay
	prefetch   int           // extra sequential blocks fetched per miss

	// Progress of the victim scan (see evictOne): the scanCount blocks
	// nearest the LRU tail are dirty and carry passed == scanEpoch, and
	// scanLast is the one of them furthest from the tail (-1 when there
	// is none). No other block carries the current epoch.
	scanEpoch uint32
	scanLast  int32
	scanCount int32

	// dirtyFiles holds every file with at least one dirty resident block,
	// maintained incrementally at the dirty/clean transitions. The cleaner
	// sweep iterates this set instead of scanning every resident file,
	// making sweep cost proportional to the dirty population rather than
	// the cache population. It is made at the first dirtying: nil in a cache
	// that is only read.
	dirtyFiles map[uint64]*fileIndex
	// oldestDirty is a lower bound on dirtyAt over all dirty blocks
	// (meaningful while ndirty > 0), kept like fileIndex.oldestDirty: no
	// cleaner tick before oldestDirty + delay has anything to do.
	oldestDirty time.Duration

	// Reusable result buffers for the hot Read/Write paths. The slices in
	// a returned ReadResult/WriteResult alias these and are valid until
	// the next Read or Write on this cache. A miss extends the last run, so
	// runScratch is as long as a request's stretches of misses are many.
	runScratch []Run
	wbScratch  []Writeback

	// Reusable buffers for the cleaner-family paths. The slice returned by
	// Clean/Fsync/Recall/RecoverFlush aliases cleanScratch and is valid
	// until the next such call on this cache; every caller consumes (or
	// ships) the batch before triggering another flush, which is what keeps
	// steady-state sweeps allocation-free.
	dirtyIDScratch []uint64
	cleanIdxScr    []int64
	cleanScratch   []Writeback

	st Stats
}

// SetPrefetch makes every read miss also fetch up to n following blocks
// (the prefetch ablation — the paper argues prefetching cannot reduce
// server traffic, only latency, and this knob lets the benchmark verify
// that claim). Prefetched blocks do not count as read operations.
func (c *Cache) SetPrefetch(n int) {
	if n < 0 {
		n = 0
	}
	c.prefetch = n
}

// New returns a cache bounded at capacityBlocks blocks. Capacity must be
// positive.
func New(capacityBlocks int) *Cache {
	if capacityBlocks <= 0 {
		panic("fscache: non-positive capacity")
	}
	return &Cache{
		capacity:  capacityBlocks,
		freeB:     -1,
		lruFront:  -1,
		lruBack:   -1,
		scanEpoch: 1,
		scanLast:  -1,
		files:     make(map[uint64]*fileIndex),
	}
}

// blk returns the block at arena slot s.
func (c *Cache) blk(s int32) *block {
	return &c.chunks[s>>chunkShift][s&(chunkBlocks-1)]
}

// dt returns the write times of the dirty block at arena slot s.
func (c *Cache) dt(s int32) *dirtyTimes {
	return &c.dtimes[s>>chunkShift][s&(chunkBlocks-1)]
}

// startDirty starts the write times of the block at arena slot s, which is
// turning dirty at now, making their chunk at the first dirtying inside it.
func (c *Cache) startDirty(s int32, now time.Duration) {
	ci := int(s >> chunkShift)
	if ci >= len(c.dtimes) {
		c.dtimes = append(c.dtimes, make([]*[chunkBlocks]dirtyTimes, ci+1-len(c.dtimes))...)
	}
	if c.dtimes[ci] == nil {
		c.dtimes[ci] = new([chunkBlocks]dirtyTimes)
	}
	c.dtimes[ci][s&(chunkBlocks-1)] = dirtyTimes{dirtyAt: now, lastWr: now}
}

// slot returns the arena slot of the given block, or -1 if not resident.
func (c *Cache) slot(file uint64, index int64) int32 {
	fi := c.files[file]
	if fi == nil {
		return -1
	}
	return fi.get(index)
}

// allocBlock pops a recycled arena slot, or takes the next unused one,
// adding a chunk when the last is full.
func (c *Cache) allocBlock() (int32, *block) {
	s := c.freeB
	if s >= 0 {
		b := c.blk(s)
		c.freeB = b.next
		return s, b
	}
	s = c.nslots
	if int(s>>chunkShift) == len(c.chunks) {
		c.chunks = append(c.chunks, new([chunkBlocks]block))
	}
	c.nslots++
	return s, c.blk(s)
}

// lruPushFront links block b (slot s) at the most-recent end.
func (c *Cache) lruPushFront(s int32, b *block) {
	b.prev = -1
	b.next = c.lruFront
	if c.lruFront >= 0 {
		c.blk(c.lruFront).prev = s
	}
	c.lruFront = s
	if c.lruBack < 0 {
		c.lruBack = s
	}
}

// lruUnlink removes block b (slot s) from the LRU list. Its two callers,
// touch and remove, first take a block the victim scan has passed out of
// the scan's run (leaveRun); the check sits with them so that this stays
// small enough to inline.
func (c *Cache) lruUnlink(s int32, b *block) {
	if b.prev >= 0 {
		c.blk(b.prev).next = b.next
	} else {
		c.lruFront = b.next
	}
	if b.next >= 0 {
		c.blk(b.next).prev = b.prev
	} else {
		c.lruBack = b.prev
	}
}

// leaveRun takes b (slot s), about to be unlinked, out of the run of dirty
// blocks the victim scan has passed: the run closes over the gap, one
// shorter.
func (c *Cache) leaveRun(s int32, b *block) {
	b.passed = 0
	c.scanCount--
	if c.scanLast == s {
		c.scanLast = b.next // the passed block next nearer the tail, if any
	}
}

// Capacity returns the current capacity in blocks.
func (c *Cache) Capacity() int { return c.capacity }

// NumBlocks returns the number of resident blocks.
func (c *Cache) NumBlocks() int { return c.nblocks }

// SizeBytes returns the resident size in bytes.
func (c *Cache) SizeBytes() int64 { return int64(c.nblocks) * BlockSize }

// DirtyBytes returns the number of dirty bytes awaiting writeback.
func (c *Cache) DirtyBytes() int64 { return c.dirtyBytes }

// Stats returns a snapshot of all counters.
func (c *Cache) Stats() Stats {
	s := c.st
	s.SizeBytes = c.SizeBytes()
	s.DirtyBytes = c.dirtyBytes
	return s
}

// Contains reports whether the given block of file is resident.
func (c *Cache) Contains(file uint64, index int64) bool {
	return c.slot(file, index) >= 0
}

func (c *Cache) touch(s int32, b *block, now time.Duration) {
	b.lastRef = now
	if c.lruFront != s {
		if b.passed == c.scanEpoch {
			c.leaveRun(s, b)
		}
		c.lruUnlink(s, b)
		c.lruPushFront(s, b)
	}
}

// insert adds block index of file as a new resident block and returns its
// slot, the block and the file's index. fi is the index the caller
// resolved for the file (nil if it had none); the request inserts blocks up
// to last, which the index reserves room for. An index whose count fell to
// zero was released by the eviction that made room — it took the file's
// last resident block — and is replaced, recycled or new.
func (c *Cache) insert(fi *fileIndex, file uint64, index, last int64, now time.Duration) (int32, *block, *fileIndex) {
	if fi == nil || fi.n == 0 {
		if n := len(c.fiFree); n > 0 {
			// Recycled indexes were emptied before release, so the dense
			// slice is all zeros (= all absent) at whatever length it
			// reached; it can be reused as-is.
			fi = c.fiFree[n-1]
			c.fiFree = c.fiFree[:n-1]
		} else {
			fi = &fileIndex{}
		}
		c.files[file] = fi
	}
	fi.reserve(last)
	s, b := c.allocBlock()
	*b = block{file: file, index: index, lastRef: now}
	c.lruPushFront(s, b)
	fi.set(index, s)
	c.nblocks++
	return s, b, fi
}

// remove unlinks block b (slot s) from all structures and recycles the
// slot. Dirty accounting is adjusted for dirty blocks.
func (c *Cache) remove(s int32, b *block) {
	if b.passed == c.scanEpoch {
		c.leaveRun(s, b)
	}
	c.lruUnlink(s, b)
	fi := c.files[b.file]
	fi.del(b.index)
	if b.dirty() {
		c.ndirty--
		c.dirtyBytes -= int64(b.dirtyHi)
		c.noteCleaned(fi, b.file)
	}
	if fi.n == 0 {
		delete(c.files, b.file)
		c.fiFree = append(c.fiFree, fi)
	}
	c.nblocks--
	b.next = c.freeB
	c.freeB = s
}

// noteDirtied records a clean->dirty block transition at now on fi
// (file's index), keeping the dirty-file set and the two age bounds in
// step. The bounds are true minima: now need not be monotone.
func (c *Cache) noteDirtied(fi *fileIndex, file uint64, now time.Duration) {
	fi.dirty++
	if fi.dirty == 1 {
		if c.dirtyFiles == nil {
			c.dirtyFiles = make(map[uint64]*fileIndex)
		}
		c.dirtyFiles[file] = fi
		fi.oldestDirty = now
	} else if now < fi.oldestDirty {
		fi.oldestDirty = now
	}
	c.ndirty++
	if c.ndirty == 1 || now < c.oldestDirty {
		c.oldestDirty = now
	}
}

// noteCleaned records a dirty->clean block transition on fi (file's index).
func (c *Cache) noteCleaned(fi *fileIndex, file uint64) {
	fi.dirty--
	if fi.dirty == 0 {
		delete(c.dirtyFiles, file)
	}
}

// cleanScanDepth bounds how far from the LRU tail the replacement scan
// looks for a clean victim before giving up and evicting a dirty block.
const cleanScanDepth = 512

// forgetScan drops the victim scan's progress: the next eviction walks
// from the tail again. Bumping the epoch unmarks every passed block at
// once. When the 32-bit epoch wraps, marks left by the scan 2^32 resets
// ago would read as current, so that one reset clears every mark in the
// arena instead — a walk once in four billion resets.
func (c *Cache) forgetScan() {
	c.scanEpoch++
	if c.scanEpoch == 0 {
		for s := int32(0); s < c.nslots; s++ {
			c.blk(s).passed = 0
		}
		c.scanEpoch = 1 // zero is what a fresh block carries
	}
	c.scanLast = -1
	c.scanCount = 0
}

// cleanedInPlace is called when b turned clean without leaving the LRU
// list. If the victim scan had passed it, there is now a clean block
// inside the run the scan believes dirty, and its progress is void.
func (c *Cache) cleanedInPlace(b *block) {
	if b.passed == c.scanEpoch {
		c.forgetScan()
	}
}

// evictOne removes the least-recently-used block to make room, returning a
// writeback if it was dirty. Clean blocks near the LRU tail are preferred
// — Sprite's cleaner normally retires dirty data long before it reaches
// the tail, so dirty evictions are the rare forced case the paper notes
// ("usually only clean blocks are replaced"): the victim is the first
// clean block within cleanScanDepth positions of the tail, else the tail.
// vmTake marks the eviction as a page handoff to the VM system rather than
// replacement by file data.
//
// The scan is resumable. The dirty blocks it walks past are marked and
// counted, and the next eviction starts behind them at the depth the last
// one reached instead of re-walking the run. That is exact because nothing
// can enter the run — inserts and touches go to the front of the list — so
// only two things disturb it: a passed block is unlinked (leaveRun
// shortens the run) or turns clean where it sits (cleanedInPlace voids the
// progress, as DiscardAll does).
func (c *Cache) evictOne(now time.Duration, vmTake bool) (Writeback, bool) {
	s := c.lruBack
	if s < 0 {
		return Writeback{}, false
	}
	cand := s
	if c.scanCount > 0 {
		cand = c.blk(c.scanLast).prev
	}
	var b *block
	for cand >= 0 && c.scanCount < cleanScanDepth {
		cb := c.blk(cand)
		if !cb.dirty() {
			s, b = cand, cb
			break
		}
		cb.passed = c.scanEpoch
		c.scanLast = cand
		c.scanCount++
		cand = cb.prev
	}
	if b == nil {
		b = c.blk(s) // no clean block in reach: the tail goes, dirty
	}
	c.st.ReplacementAge.Add(float64(now - b.lastRef))
	if vmTake {
		c.st.ReplacedVM++
	} else {
		c.st.ReplacedFile++
	}
	var wb Writeback
	dirty := b.dirty()
	if dirty {
		reason := CleanEvict
		if vmTake {
			reason = CleanVM
		}
		wb = c.makeWriteback(s, b, reason, now)
	}
	c.remove(s, b)
	return wb, dirty
}

// makeWriteback accounts for shipping dirty block b (slot s) to the server.
func (c *Cache) makeWriteback(s int32, b *block, reason CleanReason, now time.Duration) Writeback {
	age := now - c.dt(s).lastWr
	c.st.Cleaned[reason]++
	c.st.CleanAge[reason].Add(float64(age))
	c.st.BytesWrittenBack += int64(b.dirtyHi)
	return Writeback{File: b.file, Block: b.index, Bytes: int64(b.dirtyHi), Reason: reason, Age: age}
}

// ensureRoom evicts until a new block can be inserted, appending any dirty
// writebacks to out.
func (c *Cache) ensureRoom(now time.Duration, out *[]Writeback) {
	for c.nblocks >= c.capacity {
		wb, dirty := c.evictOne(now, false)
		if dirty {
			*out = append(*out, wb)
		}
		if c.lruBack < 0 && c.nblocks >= c.capacity {
			return // capacity zero-ish; nothing more to do
		}
	}
}

// blockSpan returns the first and last block indices touched by
// [offset, offset+length).
func blockSpan(offset, length int64) (first, last int64) {
	first = offset / BlockSize
	last = (offset + length - 1) / BlockSize
	return
}

// Read performs a cache read of [offset, offset+length) of file, whose
// current size is fileSize bytes. Missing blocks are fetched (the returned
// MissBytes must be transferred from the server) and installed. Reads
// beyond fileSize are a programming error and panic; the client layer
// clamps application reads to the file size first.
func (c *Cache) Read(file uint64, offset, length, fileSize int64, attr Attr, now time.Duration) ReadResult {
	var res ReadResult
	if length <= 0 {
		return res
	}
	if offset < 0 || offset+length > fileSize {
		panic(fmt.Sprintf("fscache: read [%d,%d) beyond size %d", offset, offset+length, fileSize))
	}
	res.MissRuns = c.runScratch[:0]
	res.Evicted = c.wbScratch[:0]
	first, last := blockSpan(offset, length)
	// The file's index is resolved once per call; insert replaces it when
	// the eviction that made room released it.
	fi := c.files[file]
	for idx := first; idx <= last; idx++ {
		c.countRead(attr)
		s := int32(-1)
		if fi != nil {
			s = fi.get(idx)
		}
		var b *block
		if s >= 0 {
			b = c.blk(s)
			if c.blockCovers(b, idx, offset, length) {
				c.touch(s, b, now)
				continue
			}
		}
		// Miss: fetch the valid portion of the block from the server.
		c.countReadMiss(attr)
		blockStart := idx * BlockSize
		validEnd := fileSize - blockStart
		if validEnd > BlockSize {
			validEnd = BlockSize
		}
		if s < 0 {
			c.ensureRoom(now, &res.Evicted)
			_, b, fi = c.insert(fi, file, idx, last, now)
		} else {
			c.touch(s, b, now)
		}
		fetch := validEnd - int64(b.validHi)
		if fetch < 0 {
			fetch = 0
		}
		// A partially valid block is refreshed in full for simplicity;
		// fetching the tail only is what Sprite did and what we model.
		if int64(b.validHi) < validEnd {
			b.validHi = int16(validEnd)
		}
		res.MissBytes += fetch
		res.MissBlocks++
		res.MissRuns = appendBlock(res.MissRuns, idx)
		// Sequential prefetch (ablation): pull the following blocks too.
		for p := int64(1); p <= int64(c.prefetch); p++ {
			pi := idx + p
			if pi*BlockSize >= fileSize || fi.get(pi) >= 0 {
				break
			}
			c.ensureRoom(now, &res.Evicted)
			var pb *block
			_, pb, fi = c.insert(fi, file, pi, pi, now)
			end := fileSize - pi*BlockSize
			if end > BlockSize {
				end = BlockSize
			}
			pb.validHi = int16(end)
			res.MissBytes += end
			res.MissBlocks++
			res.MissRuns = appendBlock(res.MissRuns, pi)
		}
	}
	c.addBytesRead(attr, length)
	c.runScratch = res.MissRuns[:0]
	c.wbScratch = res.Evicted[:0]
	return res
}

// blockCovers reports whether resident block b holds all bytes of the
// request that fall inside block idx.
func (c *Cache) blockCovers(b *block, idx, offset, length int64) bool {
	blockStart := idx * BlockSize
	reqEnd := offset + length - blockStart
	if reqEnd > BlockSize {
		reqEnd = BlockSize
	}
	return int64(b.validHi) >= reqEnd
}

// Write performs a cache write of [offset, offset+length) of file, whose
// size before the write is fileSizeBefore. A partial write to a
// non-resident block that already exists on the server requires a write
// fetch (the returned FetchBytes). Blocks become dirty; the 30-second
// delayed-write clock starts at the first dirtying write.
func (c *Cache) Write(file uint64, offset, length, fileSizeBefore int64, attr Attr, now time.Duration) WriteResult {
	var res WriteResult
	if length <= 0 {
		return res
	}
	if offset < 0 {
		panic("fscache: negative write offset")
	}
	res.FetchRuns = c.runScratch[:0]
	res.Evicted = c.wbScratch[:0]
	first, last := blockSpan(offset, length)
	fi := c.files[file] // replaced by insert when released, as in Read
	for idx := first; idx <= last; idx++ {
		c.st.All.WriteOps++
		if attr.Migrated {
			c.st.Migrated.WriteOps++
		}
		blockStart := idx * BlockSize
		// Portion of the request inside this block.
		lo := offset - blockStart
		if lo < 0 {
			lo = 0
		}
		hi := offset + length - blockStart
		if hi > BlockSize {
			hi = BlockSize
		}
		s := int32(-1)
		if fi != nil {
			s = fi.get(idx)
		}
		var b *block
		if s >= 0 {
			b = c.blk(s)
			c.touch(s, b, now)
		}
		partial := lo > 0 || (hi < BlockSize && blockStart+hi < fileSizeBefore)
		if b == nil {
			// Write fetch: the block exists on the server (it holds bytes
			// below fileSizeBefore), the write is partial, and the block is
			// not resident — it must be fetched before modification.
			existingEnd := fileSizeBefore - blockStart
			if existingEnd > BlockSize {
				existingEnd = BlockSize
			}
			needFetch := partial && existingEnd > 0 && lo < existingEnd
			c.ensureRoom(now, &res.Evicted)
			s, b, fi = c.insert(fi, file, idx, last, now)
			if needFetch {
				c.st.All.WriteFetches++
				if attr.Migrated {
					c.st.Migrated.WriteFetches++
				}
				res.FetchBytes += existingEnd
				res.FetchBlocks++
				res.FetchRuns = appendBlock(res.FetchRuns, idx)
				b.validHi = int16(existingEnd)
			}
		}
		if b.dirty() {
			c.dt(s).lastWr = now
		} else {
			c.startDirty(s, now)
			c.noteDirtied(fi, file, now)
		}
		h := int16(hi) // at least 1: the write leaves the block dirty
		if h > b.validHi {
			b.validHi = h
		}
		if h > b.dirtyHi {
			c.dirtyBytes += int64(h - b.dirtyHi)
			b.dirtyHi = h
		}
	}
	c.st.All.BytesWritten += length
	if attr.Migrated {
		c.st.Migrated.BytesWritten += length
	}
	c.runScratch = res.FetchRuns[:0]
	c.wbScratch = res.Evicted[:0]
	return res
}

func (c *Cache) countRead(attr Attr) {
	c.st.All.ReadOps++
	if attr.Paging {
		c.st.All.PagingReadOps++
	}
	if attr.Migrated {
		c.st.Migrated.ReadOps++
		if attr.Paging {
			c.st.Migrated.PagingReadOps++
		}
	}
}

func (c *Cache) countReadMiss(attr Attr) {
	c.st.All.ReadMisses++
	if attr.Paging {
		c.st.All.PagingReadMiss++
	}
	if attr.Migrated {
		c.st.Migrated.ReadMisses++
		if attr.Paging {
			c.st.Migrated.PagingReadMiss++
		}
	}
}

func (c *Cache) addBytesRead(attr Attr, n int64) {
	c.st.All.BytesRead += n
	if attr.Paging {
		c.st.All.PagingBytesRead += n
	}
	if attr.Migrated {
		c.st.Migrated.BytesRead += n
		if attr.Paging {
			c.st.Migrated.PagingBytesRead += n
		}
	}
}

// note: BytesReadMissed is accumulated by the client after the RPC, via
// AddMissBytes, so that clamping at the server (e.g. concurrent truncate)
// can be reflected; in the current simulator the two always agree.

// AddMissBytes records n bytes fetched from the server to satisfy reads.
func (c *Cache) AddMissBytes(attr Attr, n int64) {
	c.st.All.BytesReadMissed += n
	if attr.Paging {
		c.st.All.PagingBytesMiss += n
	}
	if attr.Migrated {
		c.st.Migrated.BytesReadMissed += n
		if attr.Paging {
			c.st.Migrated.PagingBytesMiss += n
		}
	}
}
