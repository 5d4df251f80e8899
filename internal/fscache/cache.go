package fscache

import (
	"fmt"
	"slices"
	"time"

	"spritefs/internal/stats"
)

// BlockSize is the cache block size: 4 Kbytes, as in Sprite.
const BlockSize = 4096

// A node keeps its byte watermarks in an int16.
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

// Writeback describes a run of dirty blocks of one file the caller must
// ship to the server: blocks Block through Block+N-1, all written back for
// one reason and all last written at the same instant. Every block of the
// run but the last is whole; Bytes totals the run, the last block counting
// from its start through its high-water mark. Per block, a run is exactly
// the N one-block writebacks it stands for, in ascending index.
type Writeback struct {
	File   uint64
	Block  int64         // first block index within the file
	Bytes  int64         // bytes to transfer: N-1 whole blocks and the last one's prefix
	Age    time.Duration // time since the blocks were last written
	N      int32         // blocks in the run, at least one (a node's count)
	Reason CleanReason
}

// BlockBytes returns the bytes block Block+i of the run transfers.
func (wb Writeback) BlockBytes(i int32) int64 {
	if i < wb.N-1 {
		return BlockSize
	}
	return wb.Bytes - int64(wb.N-1)*BlockSize
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

// The LRU list is a list of nodes. A node is a stretch of consecutive
// blocks of one file that sit next to each other in the LRU order,
// ascending toward the front: block first is the one nearest the tail,
// first+n-1 the one nearest the front, and all of them were last
// referenced at lastRef. Every block of a node is fully valid but the
// front-most, whose watermark it keeps. A clean node's blocks are all
// clean; a dirty node (an extent of dirty blocks) is fully dirty but the
// front-most, whose dirty watermark it keeps, and all its blocks turned
// dirty at one instant and were last written at one instant, which its
// dirtyTimes hold.
//
// That is the whole of the per-block state, held once per stretch, and
// every operation keeps its per-block meaning. A read's blocks at one
// instant become one node at the front or extend the front node, and so
// do a write's (see joinsFront and joinsDirtyFront); a touch, a rewrite or
// a truncate inside a node splits or shortens it; eviction takes one block
// at a time from the tail end of the tail node, and the cleaner turns a
// dirty node clean whole, where it sits — so every victim, age and count
// is the one a list of blocks gives. A client cache is
// overwhelmingly clean stretches — a program's pages, read at boot in one
// call and left alone until the tail takes them — so a resident block
// costs its index entry, 4 bytes, and little more; a server cache takes
// each writeback run as one extent.
//
// Nodes live by value in Cache.nodes and are referred to by int32 slots
// everywhere: the LRU list is intrusive (prev/next slot links, front =
// most recent), the per-file index maps each resident block to the slot of
// its node, and a free list recycles slots, so steady-state Read and Write
// perform zero allocations. The slice grows by appending, which may move
// it: a *node is valid only until the next allocNode. A node names its
// file's index by slot too (Cache.fis), so a block leaving the cache
// reaches the index without a map lookup.
type node struct {
	file    uint64
	first   int64         // the block nearest the LRU tail
	lastRef time.Duration // when the node's blocks were last referenced
	n       int32         // blocks, at least one
	prev    int32         // LRU link toward the front (more recent)
	next    int32         // LRU link toward the back; doubles as the free-list link
	// passed == Cache.scanEpoch marks a node of the dirty run at the LRU
	// tail that the victim scan has already walked past (see evictOne).
	passed  uint32
	fi      int32 // the slot of the file's index in Cache.fis
	validHi int16 // valid bytes of the front-most block from its start (watermark)
	dirtyHi int16 // dirty bytes of the front-most block from its start; the node is dirty iff nonzero
}

// dirty reports whether the node's blocks hold bytes awaiting writeback.
func (x *node) dirty() bool { return x.dirtyHi != 0 }

// last returns the node's front-most block.
func (x *node) last() int64 { return x.first + int64(x.n) - 1 }

// valid returns the watermark of block idx of the node.
func (x *node) valid(idx int64) int16 {
	if idx == x.last() {
		return x.validHi
	}
	return BlockSize
}

// dirtyTo returns the dirty watermark of block idx of the node.
func (x *node) dirtyTo(idx int64) int16 {
	if idx == x.last() || !x.dirty() {
		return x.dirtyHi
	}
	return BlockSize
}

// dirtyBytes returns the bytes of the first k blocks of the node, which is
// dirty, that await writeback.
func (x *node) dirtyBytes(k int32) int64 {
	if k == x.n {
		return int64(k-1)*BlockSize + int64(x.dirtyHi)
	}
	return int64(k) * BlockSize
}

// dirtyTimes is the state of a dirty node that a clean one does without.
// It is written whole when a node turns dirty and means nothing while the
// node is clean: a slot's next tenant, or the same blocks dirtied again,
// never reads what was left there.
type dirtyTimes struct {
	dirtyAt time.Duration // when the blocks first became dirty
	lastWr  time.Duration // when the blocks were last written
}

// fiDenseMax bounds the dense per-file index: files up to 32k blocks
// (128 MB) index a slice directly; rarer huge offsets fall back to a map,
// and a block there is always a node of its own.
const fiDenseMax = 1 << 15

// fileIndex maps one file's resident blocks to the slots of their nodes.
type fileIndex struct {
	dense  []int32         // slot+1 per block index, 0 = absent
	sparse map[int64]int32 // slots for block indices >= fiDenseMax
	n      int             // resident blocks of this file
	dirty  int             // dirty resident blocks of this file
	id     int32           // its slot in Cache.fis
	// 1 + the id of the next recycled index, while this one is recycled
	// (0 ends the chain).
	nextFree int32

	// oldestDirty is a lower bound on dirtyAt over the file's dirty blocks
	// (meaningful while dirty > 0): the minimum over every dirtying since
	// the file last had none. A dirty block that leaves does not raise it,
	// so it can be stale-low; Clean uses it only to skip the file and
	// tightens it whenever it scans the blocks anyway.
	oldestDirty time.Duration
}

// get returns the slot of the node holding block idx, or -1.
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

// put records block idx as held by the node at slot s. idx must be
// reserved if dense.
func (fi *fileIndex) put(idx int64, s int32) {
	if idx < fiDenseMax {
		fi.dense[idx] = s + 1
	} else {
		if fi.sparse == nil {
			fi.sparse = make(map[int64]int32)
		}
		fi.sparse[idx] = s
	}
}

// del removes block idx from the index. idx must be present.
func (fi *fileIndex) del(idx int64) {
	if idx < fiDenseMax {
		fi.dense[idx] = 0
	} else {
		delete(fi.sparse, idx)
	}
}

// Cache is one client's (or server's) block cache.
type Cache struct {
	capacity int // blocks
	// The nodes by slot. Slots below len(nodes) have been handed out; each
	// is in the LRU list or on the free list.
	nodes []node
	// The dirty nodes' write times by slot, grown to cover a slot when it
	// first turns dirty: a cache that is only read never allocates any.
	dtimes   []dirtyTimes
	freeN    int32 // free-slot list head through next, -1 when empty
	lruFront int32 // most recently used, -1 when empty
	lruBack  int32 // least recently used
	// The resident files' indexes, made at the first insert: nil in a
	// cache that has held no block, and again after DiscardAll.
	files map[uint64]*fileIndex
	// Every index handed out, by id: resident, or recycled (emptied) and
	// chained from fiFree, 1 + the id of the first (0 when none).
	fis        []*fileIndex
	fiFree     int32
	nblocks    int
	ndirty     int
	dirtyBytes int64
	wbDelay    time.Duration // 0 = default WritebackDelay
	prefetch   int           // extra sequential blocks fetched per miss

	// Progress of the victim scan (see evictOne): the scanCount nodes
	// nearest the LRU tail are dirty and carry passed == scanEpoch, and
	// scanLast is the one of them furthest from the tail (-1 when there
	// is none). No other node carries the current epoch.
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
	slotScratch    []int32
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
		freeN:     -1,
		lruFront:  -1,
		lruBack:   -1,
		scanEpoch: 1,
		scanLast:  -1,
	}
}

// nd returns the node at slot s.
func (c *Cache) nd(s int32) *node { return &c.nodes[s] }

// dt returns the write times of the dirty node at slot s.
func (c *Cache) dt(s int32) *dirtyTimes { return &c.dtimes[s] }

// setTimes sets the write times of the dirty node at slot s, growing them
// to cover every slot handed out when s is past their end.
func (c *Cache) setTimes(s int32, t dirtyTimes) {
	if int(s) >= len(c.dtimes) {
		c.dtimes = slices.Grow(c.dtimes, cap(c.nodes)-len(c.dtimes))[:cap(c.nodes)]
	}
	c.dtimes[s] = t
}

// slot returns the slot of the node holding the given block, or -1 if it
// is not resident.
func (c *Cache) slot(file uint64, index int64) int32 {
	fi := c.files[file]
	if fi == nil {
		return -1
	}
	return fi.get(index)
}

// allocNode pops a recycled slot, or hands out a new one, which may grow
// the nodes and so move them: no *node taken before allocNode stays valid.
func (c *Cache) allocNode() int32 {
	if s := c.freeN; s >= 0 {
		c.freeN = c.nodes[s].next
		return s
	}
	return c.newSlot()
}

// newSlot appends a slot. The nodes grow by doubling, up to one per block
// of capacity (a node holds at least one block), so a cache filling with
// one-block nodes copies each node about once. It stays out of line so
// that allocNode's recycling path inlines.
//
//go:noinline
func (c *Cache) newSlot() int32 {
	if n := len(c.nodes); n == cap(c.nodes) {
		c.nodes = slices.Grow(c.nodes, max(min(n, c.capacity-n), 1))
	}
	c.nodes = append(c.nodes, node{})
	return int32(len(c.nodes) - 1)
}

// freeNode pushes slot s, out of the LRU list, onto the free list.
func (c *Cache) freeNode(s int32) {
	c.nodes[s].next = c.freeN
	c.freeN = s
}

// lruPushFront links node s at the most-recent end.
func (c *Cache) lruPushFront(s int32) {
	x := c.nd(s)
	x.prev = -1
	x.next = c.lruFront
	if c.lruFront >= 0 {
		c.nd(c.lruFront).prev = s
	}
	c.lruFront = s
	if c.lruBack < 0 {
		c.lruBack = s
	}
}

// lruUnlink removes node s from the LRU list. Its callers first take a node
// the victim scan has passed out of the scan's run (leaveRun).
func (c *Cache) lruUnlink(s int32) {
	x := c.nd(s)
	if x.prev >= 0 {
		c.nd(x.prev).next = x.next
	} else {
		c.lruFront = x.next
	}
	if x.next >= 0 {
		c.nd(x.next).prev = x.prev
	} else {
		c.lruBack = x.prev
	}
}

// lruLinkBeside links node s next to node at: just behind it (toward the
// tail) when behind is set, else just ahead of it.
func (c *Cache) lruLinkBeside(s, at int32, behind bool) {
	x, a := c.nd(s), c.nd(at)
	if behind {
		x.prev, x.next = at, a.next
		if a.next >= 0 {
			c.nd(a.next).prev = s
		} else {
			c.lruBack = s
		}
		a.next = s
		return
	}
	x.prev, x.next = a.prev, at
	if a.prev >= 0 {
		c.nd(a.prev).next = s
	} else {
		c.lruFront = s
	}
	a.prev = s
}

// leaveRun takes node s, about to be unlinked, out of the run of dirty
// nodes the victim scan has passed: the run closes over the gap, its
// blocks fewer.
func (c *Cache) leaveRun(s int32) {
	x := c.nd(s)
	x.passed = 0
	c.scanCount -= x.n
	if c.scanLast == s {
		c.scanLast = x.next // the passed node next nearer the tail, if any
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

// touch makes block idx, held by node s of fi's file, the most recently
// used block, referenced at now, and returns the slot of the front node,
// whose front-most block it now is. The block extends the front node where
// that is exact (joins), or else becomes a node of its own, keeping its
// write state if it is dirty.
func (c *Cache) touch(fi *fileIndex, s int32, idx int64, now time.Duration) int32 {
	x := c.nd(s)
	if x.n == 1 {
		// The node moves whole, or its one block joins the front node.
		if s != c.lruFront {
			if x.passed == c.scanEpoch {
				c.leaveRun(s)
			}
			c.lruUnlink(s)
			if c.joins(s, idx, now) {
				f := c.extendFront(fi, idx, x.validHi, x.dirtyHi)
				c.freeNode(s)
				return f
			}
			c.lruPushFront(s)
		}
		x.lastRef = now
		return s
	}
	if s == c.lruFront && idx == x.last() && x.lastRef == now {
		return s // already the front-most block, referenced now
	}
	// Taking the block out of its node does not change whether it may join
	// the front node (the one case where it would returned just above), so
	// that is asked first.
	join := c.joins(s, idx, now)
	file, vh, dh := x.file, x.valid(idx), x.dirtyTo(idx)
	c.cut(fi, s, idx)
	if join {
		return c.extendFront(fi, idx, vh, dh)
	}
	t := c.pushNew(fi, file, idx, vh, now)
	if dh != 0 {
		c.nd(t).dirtyHi = dh
		c.setTimes(t, c.dtimes[s])
	}
	return t
}

// cut takes block idx out of node s of fi's file, which holds others too.
// The rest of the node stays where it sits: one block shorter at an end,
// or split in two around idx. The block's own index entry is the caller's
// to rewrite, and so is its share of the dirty counts. A block cut from the
// victim scan's run leaves it.
func (c *Cache) cut(fi *fileIndex, s int32, idx int64) {
	x := c.nd(s)
	if x.passed == c.scanEpoch {
		c.scanCount--
	}
	switch {
	case idx == x.first:
		x.first++
		x.n--
	case idx == x.last():
		x.n--
		x.validHi = BlockSize
		if x.dirty() {
			x.dirtyHi = BlockSize
		}
	default:
		c.split(fi, s, idx)
	}
}

// split cuts node s of fi's file in two around block idx, inside it. The
// side with fewer blocks moves to a new slot, its index entries relabelled,
// and is linked beside s so that no block changes place; a dirty node's
// new side takes its write times, and a node of the victim scan's run
// stays in it, both sides.
func (c *Cache) split(fi *fileIndex, s int32, idx int64) {
	u := c.allocNode()
	x, y := c.nd(s), c.nd(u)
	full := int16(0) // the dirty watermark of a block inside the node
	if x.dirty() {
		full = BlockSize
		c.setTimes(u, c.dtimes[s])
	}
	y.file, y.fi, y.lastRef, y.passed = x.file, x.fi, x.lastRef, x.passed
	behind, ahead := idx-x.first, x.last()-idx
	if behind <= ahead {
		y.first, y.n, y.validHi, y.dirtyHi = x.first, int32(behind), BlockSize, full
		x.first, x.n = idx+1, int32(ahead)
	} else {
		y.first, y.n, y.validHi, y.dirtyHi = idx+1, int32(ahead), x.validHi, x.dirtyHi
		x.n, x.validHi, x.dirtyHi = int32(behind), BlockSize, full
		if c.scanLast == s {
			c.scanLast = u // the run's node furthest from the tail is now u
		}
	}
	c.lruLinkBeside(u, s, behind <= ahead)
	for j := y.first; j < y.first+int64(y.n); j++ {
		fi.dense[j] = u + 1
	}
}

// extendFront makes block idx of the front node's file, with watermarks vh
// and dh, the front node's new front-most block (joinsFront or
// joinsDirtyFront said it may be), and returns the front node's slot. A
// front node in the victim scan's run (the whole list is dirty) takes the
// block into the run.
func (c *Cache) extendFront(fi *fileIndex, idx int64, vh, dh int16) int32 {
	f := c.lruFront
	x := c.nd(f)
	x.n++
	x.validHi, x.dirtyHi = vh, dh
	if x.passed == c.scanEpoch {
		c.scanCount++
	}
	fi.dense[idx] = f + 1
	return f
}

// pushNew puts block idx of file, whose index is fi, with watermark vh, at
// the front of the LRU list as a clean node of its own, referenced at now,
// and returns its slot.
func (c *Cache) pushNew(fi *fileIndex, file uint64, idx int64, vh int16, now time.Duration) int32 {
	t := c.allocNode()
	// Field by field: a composite literal is built on the stack and copied
	// in wide loads that stall on the narrow stores just made.
	x := c.nd(t)
	x.file, x.first, x.n, x.lastRef = file, idx, 1, now
	x.passed, x.fi, x.validHi, x.dirtyHi = 0, fi.id, vh, 0
	fi.put(idx, t)
	c.lruPushFront(t)
	return t
}

// joinsFront reports whether clean block idx of file, referenced at now,
// extends the front node exactly: the node is clean, its front-most block
// is the one before idx, fully valid, and was referenced at the same
// instant. A block past the dense index stays a node of its own.
func (c *Cache) joinsFront(file uint64, idx int64, now time.Duration) bool {
	if c.lruFront < 0 || idx >= fiDenseMax {
		return false
	}
	f := c.nd(c.lruFront)
	return f.lastRef == now && f.file == file && f.last()+1 == idx && f.validHi == BlockSize && !f.dirty()
}

// joinsDirtyFront reports whether dirty block idx of file, with write times
// t, referenced at now, extends the front node exactly: the node is dirty
// with the same write times and was referenced at the same instant, and
// its front-most block is the one before idx, fully dirty (so fully
// valid). A block past the dense index stays a node of its own.
func (c *Cache) joinsDirtyFront(file uint64, idx int64, t dirtyTimes, now time.Duration) bool {
	if c.lruFront < 0 || idx >= fiDenseMax {
		return false
	}
	f := c.nd(c.lruFront)
	return f.lastRef == now && f.file == file && f.last()+1 == idx && f.dirtyHi == BlockSize && c.dtimes[c.lruFront] == t
}

// joins reports whether block idx of node s, referenced at now, extends the
// front node exactly (joinsFront, or joinsDirtyFront for a dirty block).
func (c *Cache) joins(s int32, idx int64, now time.Duration) bool {
	x := c.nd(s)
	if x.dirty() {
		return c.joinsDirtyFront(x.file, idx, c.dtimes[s], now)
	}
	return c.joinsFront(x.file, idx, now)
}

// admit counts a new resident block of file, of a request that inserts
// blocks up to last, and returns the file's index, with room reserved up
// to last. fi is the index the caller resolved for the file (nil if it had
// none). An index whose count fell to zero was released by the eviction
// that made room — it took the file's last resident block — and is
// replaced, recycled or new.
func (c *Cache) admit(fi *fileIndex, file uint64, last int64) *fileIndex {
	if fi == nil || fi.n == 0 {
		if c.fiFree != 0 {
			// Recycled indexes were emptied before release, so the dense
			// slice is all zeros (= all absent) at whatever length it
			// reached; it can be reused as-is.
			fi = c.fis[c.fiFree-1]
			c.fiFree = fi.nextFree
		} else {
			fi = &fileIndex{id: int32(len(c.fis))}
			c.fis = append(c.fis, fi)
		}
		if c.files == nil {
			c.files = make(map[uint64]*fileIndex)
		}
		c.files[file] = fi
	}
	fi.reserve(last)
	fi.n++
	c.nblocks++
	return fi
}

// insert adds block idx of file, with watermark vh, as a new clean resident
// block at the front, referenced at now: an extension of the front node
// where that is exact, else a node of its own. fi and last are admit's.
func (c *Cache) insert(fi *fileIndex, file uint64, idx, last int64, vh int16, now time.Duration) *fileIndex {
	fi = c.admit(fi, file, last)
	if c.joinsFront(file, idx, now) {
		c.extendFront(fi, idx, vh, 0)
	} else {
		c.pushNew(fi, file, idx, vh, now)
	}
	return fi
}

// dropNode unlinks node s and all its blocks from every structure and
// recycles the slot. Dirty accounting is adjusted for a dirty node.
func (c *Cache) dropNode(s int32) {
	x := c.nd(s)
	if x.passed == c.scanEpoch {
		c.leaveRun(s)
	}
	c.lruUnlink(s)
	fi := c.fis[x.fi]
	for j := x.first; j <= x.last(); j++ {
		fi.del(j)
	}
	fi.n -= int(x.n)
	c.nblocks -= int(x.n)
	if x.dirty() {
		c.dirtyBytes -= x.dirtyBytes(x.n)
		c.noteCleaned(fi, x.file, x.n)
	}
	if fi.n == 0 {
		delete(c.files, x.file)
		fi.nextFree, c.fiFree = c.fiFree, fi.id+1
	}
	c.freeNode(s)
}

// dropFirst removes the tail-end block of node x, which holds others too.
// Dirty accounting is adjusted for a dirty node, whose tail-end block is
// whole.
func (c *Cache) dropFirst(x *node) {
	fi := c.fis[x.fi]
	fi.del(x.first)
	fi.n--
	c.nblocks--
	if x.dirty() {
		c.dirtyBytes -= BlockSize
		c.noteCleaned(fi, x.file, 1)
	}
	if x.passed == c.scanEpoch {
		c.scanCount--
	}
	x.first++
	x.n--
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

// noteCleaned records k dirty->clean block transitions on fi (file's
// index).
func (c *Cache) noteCleaned(fi *fileIndex, file uint64, k int32) {
	fi.dirty -= int(k)
	c.ndirty -= int(k)
	if fi.dirty == 0 {
		delete(c.dirtyFiles, file)
	}
}

// cleanScanDepth bounds how far from the LRU tail the replacement scan
// looks for a clean victim before giving up and evicting a dirty block.
const cleanScanDepth = 512

// forgetScan drops the victim scan's progress: the next eviction walks
// from the tail again. Bumping the epoch unmarks every passed node at
// once. When the 32-bit epoch wraps, marks left by the scan 2^32 resets
// ago would read as current, so that one reset clears every mark instead —
// a walk over the nodes once in four billion resets.
func (c *Cache) forgetScan() {
	c.scanEpoch++
	if c.scanEpoch == 0 {
		for i := range c.nodes {
			c.nodes[i].passed = 0
		}
		c.scanEpoch = 1 // zero is what a fresh node carries
	}
	c.scanLast = -1
	c.scanCount = 0
}

// cleanedInPlace is called when node x turned clean without leaving the
// LRU list. If the victim scan had passed it, there is now a clean block
// inside the run the scan believes dirty, and its progress is void.
func (c *Cache) cleanedInPlace(x *node) {
	if x.passed == c.scanEpoch {
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
// The scan walks nodes and counts blocks: the first clean node it meets
// before it has passed cleanScanDepth blocks holds the victim at its tail
// end. The scan is resumable. The dirty nodes it walks past are marked and
// their blocks counted, and the next eviction starts behind them at the
// depth the last one reached instead of re-walking the run. That is exact
// because nothing enters the run but dirty blocks at its front end —
// inserts and touches go to the front of the list, which is in the run
// only when the whole list is, and a split links its new node beside the
// one it splits — so only two things disturb it: blocks leave it (touched,
// dropped or truncated away; the run closes over the gap, shorter) or a
// passed node turns clean where it sits (cleanedInPlace voids the
// progress, as DiscardAll does).
func (c *Cache) evictOne(now time.Duration, vmTake bool) (Writeback, bool) {
	s := c.lruBack
	if s < 0 {
		return Writeback{}, false
	}
	cand := s
	if c.scanCount > 0 {
		cand = c.nd(c.scanLast).prev
	}
	for cand >= 0 && c.scanCount < cleanScanDepth {
		x := c.nd(cand)
		if !x.dirty() {
			s = cand
			break
		}
		x.passed = c.scanEpoch
		c.scanLast = cand
		c.scanCount += x.n
		cand = x.prev
	}
	// s is the clean node found, or the tail when none is in reach.
	x := c.nd(s)
	c.st.ReplacementAge.Add(float64(now - x.lastRef))
	if vmTake {
		c.st.ReplacedVM++
	} else {
		c.st.ReplacedFile++
	}
	var wb Writeback
	dirty := x.dirty()
	if dirty {
		reason := CleanEvict
		if vmTake {
			reason = CleanVM
		}
		wb = c.makeWriteback(s, 1, reason, now)
	}
	if x.n == 1 {
		c.dropNode(s)
	} else {
		c.dropFirst(x)
	}
	return wb, dirty
}

// makeWriteback counts the shipping of the first k blocks of dirty node s
// to the server and describes them. The dirty counts are the caller's.
func (c *Cache) makeWriteback(s int32, k int32, reason CleanReason, now time.Duration) Writeback {
	x := c.nd(s)
	age := now - c.dt(s).lastWr
	bytes := x.dirtyBytes(k)
	c.st.Cleaned[reason] += int64(k)
	for range k {
		c.st.CleanAge[reason].Add(float64(age))
	}
	c.st.BytesWrittenBack += bytes
	return Writeback{File: x.file, Block: x.first, Bytes: bytes, Age: age, N: k, Reason: reason}
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
	// The file's index is resolved once per call; insert (admit) replaces
	// it when the eviction that made room released it.
	fi := c.files[file]
	for idx := first; idx <= last; idx++ {
		c.countRead(attr)
		s := int32(-1)
		if fi != nil {
			s = fi.get(idx)
		}
		if s >= 0 && c.covers(s, idx, offset, length) {
			c.touch(fi, s, idx, now)
			continue
		}
		// Miss: fetch the valid portion of the block from the server. A
		// partially valid block is refreshed in full for simplicity;
		// fetching the tail only is what Sprite did and what we model.
		c.countReadMiss(attr)
		validEnd := min(fileSize-idx*BlockSize, BlockSize)
		fetch := validEnd
		if s < 0 {
			c.ensureRoom(now, &res.Evicted)
			fi = c.insert(fi, file, idx, last, int16(validEnd), now)
		} else {
			vh := c.nd(s).valid(idx)
			x := c.nd(c.touch(fi, s, idx, now))
			fetch = max(validEnd-int64(vh), 0)
			x.validHi = max(vh, int16(validEnd))
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
			end := min(fileSize-pi*BlockSize, BlockSize)
			fi = c.insert(fi, file, pi, pi, int16(end), now)
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

// covers reports whether block idx, held by node s, holds all bytes of the
// request that fall inside it.
func (c *Cache) covers(s int32, idx, offset, length int64) bool {
	reqEnd := min(offset+length-idx*BlockSize, BlockSize)
	return int64(c.nd(s).valid(idx)) >= reqEnd
}

// Write performs a cache write of [offset, offset+length) of file, whose
// size before the write is fileSizeBefore. A partial write to a
// non-resident block that already exists on the server requires a write
// fetch (the returned FetchBytes). Blocks become dirty; the 30-second
// delayed-write clock starts at the first dirtying write. Each written
// block goes to the front of the LRU list, extending the front node where
// that is exact (joinsDirtyFront), so the blocks one write dirties at one
// instant are one node.
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
	fi := c.files[file] // replaced by admit when released, as in Read
	for idx := first; idx <= last; idx++ {
		c.st.All.WriteOps++
		if attr.Migrated {
			c.st.Migrated.WriteOps++
		}
		blockStart := idx * BlockSize
		// Portion of the request inside this block.
		lo := max(offset-blockStart, 0)
		hi := min(offset+length-blockStart, BlockSize)
		s := int32(-1)
		if fi != nil {
			s = fi.get(idx)
		}
		h := int16(hi) // at least 1: the write leaves the block dirty
		// The block's state before the write, taken out of its node if it
		// is resident; spare is its node's slot when it was a node alone.
		var vh, dh int16
		times := dirtyTimes{dirtyAt: now}
		spare := int32(-1)
		if s >= 0 {
			x := c.nd(s)
			vh, dh = x.valid(idx), x.dirtyTo(idx)
			if dh != 0 {
				times = c.dtimes[s]
			}
			if x.n == 1 {
				if x.passed == c.scanEpoch {
					c.leaveRun(s)
				}
				c.lruUnlink(s)
				spare = s
			} else {
				c.cut(fi, s, idx)
			}
		} else {
			// Write fetch: the block exists on the server (it holds bytes
			// below fileSizeBefore), the write is partial, and the block is
			// not resident — it must be fetched before modification.
			existingEnd := min(fileSizeBefore-blockStart, BlockSize)
			partial := lo > 0 || (hi < BlockSize && blockStart+hi < fileSizeBefore)
			if partial && existingEnd > 0 && lo < existingEnd {
				c.st.All.WriteFetches++
				if attr.Migrated {
					c.st.Migrated.WriteFetches++
				}
				res.FetchBytes += existingEnd
				res.FetchBlocks++
				res.FetchRuns = appendBlock(res.FetchRuns, idx)
				vh = int16(existingEnd)
			}
			c.ensureRoom(now, &res.Evicted)
			fi = c.admit(fi, file, last)
		}
		if dh == 0 {
			c.noteDirtied(fi, file, now)
		}
		times.lastWr = now
		c.dirtyBytes += int64(max(dh, h) - dh)
		vh, dh = max(vh, h), max(dh, h)
		if c.joinsDirtyFront(file, idx, times, now) {
			c.extendFront(fi, idx, vh, dh)
			if spare >= 0 {
				c.freeNode(spare)
			}
			continue
		}
		if spare < 0 {
			spare = c.pushNew(fi, file, idx, vh, now)
		} else {
			c.lruPushFront(spare)
		}
		x := c.nd(spare)
		x.lastRef, x.validHi, x.dirtyHi = now, vh, dh
		c.setTimes(spare, times)
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
