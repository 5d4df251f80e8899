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

// appendRun adds the k blocks from idx to runs, extending the last run when
// they follow it.
func appendRun(runs []Run, idx, k int64) []Run {
	if n := len(runs); n > 0 && runs[n-1].First+runs[n-1].N == idx {
		runs[n-1].N += k
		return runs
	}
	return append(runs, Run{First: idx, N: k})
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
	BytesReadMissed int64 // bytes fetched to satisfy reads (the reads' MissBytes)
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
// every operation keeps its per-block meaning. Nodes change in three ways.
// A block reaches the LRU front by place, which extends the front node
// where joinsFront says that is exact — a read's or a write's blocks at one
// instant become one node — and otherwise makes the block a node of its
// own; a resident block is first taken out of its node by lift, which cuts
// the node around it. A read's blocks reach the front as runs, and a block
// that placing would join to the node before it extends that node instead
// (extend), which is the same: a resident run's blocks after its first,
// taken from one node's tail end with that node's dirty state, in one step;
// an absent run's, which fill places one at a time where the cache is full
// and extends by the whole blocks that fit after each. Blocks leave the
// cache by drop, from one end of a node or with the whole node: eviction
// takes one at a time from the tail end of the tail node, a truncate the
// blocks past the cut. The cleaner turns a dirty node clean whole, where
// it sits. So every victim, age and count is the one a list of blocks
// gives. A client cache is overwhelmingly clean stretches — a program's
// pages, read at boot in one call and left alone until the tail takes them
// — so a resident block costs its index entry, 4 bytes, and little more; a
// server cache takes each writeback run as one extent.
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
	fi      int32         // the slot of the file's index in Cache.fis
	validHi int16         // valid bytes of the front-most block from its start (watermark)
	dirtyHi int16         // dirty bytes of the front-most block from its start; the node is dirty iff nonzero
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

	// dirtyFiles holds every file with at least one dirty resident block,
	// maintained incrementally at the dirty/clean transitions. The cleaner
	// sweep iterates this set instead of scanning every resident file,
	// making sweep cost proportional to the dirty population rather than
	// the cache population. It is made at the first dirtying: nil in a cache
	// that is only read.
	dirtyFiles map[uint64]*fileIndex
	// oldestDirty is a lower bound on dirtyAt over all dirty blocks
	// (meaningful while ndirty > 0): the minimum over every dirtying since
	// the last sweep that got past it, which left it exact. A dirty block
	// that leaves does not raise it, so it can be stale-low; no cleaner tick
	// before oldestDirty + delay has anything to do.
	oldestDirty time.Duration

	// Reusable result buffers. The runs of a returned ReadResult or
	// WriteResult alias runScratch and are valid until the next Read or
	// Write on this cache; a miss extends the last run, so runScratch is as
	// long as a request's stretches of misses are many. Every []Writeback
	// a cache returns (Read's and Write's Evicted, Clean's, Flush's and
	// SetCapacity's) aliases wbScratch and is valid until the next call on
	// this cache that returns writebacks. Every caller ships (or consumes)
	// one batch before such a call, which is what keeps the steady state
	// allocation-free.
	runScratch []Run
	wbScratch  []Writeback

	// Reusable buffers for the cleaner's walk.
	dirtyIDScratch []uint64
	slotScratch    []int32

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
		capacity: capacityBlocks,
		freeN:    -1,
		lruFront: -1,
		lruBack:  -1,
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

// lruUnlink removes node s from the LRU list.
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

// blockState is a block out of its node, between lift and place: its file,
// index and watermarks, its write times if it is dirty, and spare, the slot
// of the node it was alone in (-1 when it shared one, or is new). The
// watermarks are wider than a node's: two int16s side by side, stored one
// at a time, are read back in one wide load that stalls on the stores.
type blockState struct {
	file   uint64
	idx    int64
	times  dirtyTimes // meaningful while dh is nonzero
	spare  int32
	vh, dh int32
}

// touch makes block idx, held by node s of fi's file, the most recently
// used block, referenced at now, and returns the slot of the front node,
// whose front-most block it now is. The front node's own front-most block
// stays where it is: lifted, a lone front node could join the node behind
// it, which would be exact per block but a different node.
func (c *Cache) touch(fi *fileIndex, s int32, idx int64, now time.Duration) int32 {
	if x := c.nd(s); s == c.lruFront && idx == x.last() && (x.n == 1 || x.lastRef == now) {
		x.lastRef = now
		return s
	}
	var b blockState
	c.lift(fi, s, idx, &b)
	return c.place(fi, &b, now)
}

// lift takes block idx out of node s of fi's file and writes its state to
// b. A block alone in its node leaves the LRU list with it, and the slot is
// the state's spare; otherwise the node is cut around the block. The block
// keeps its index entry, which place rewrites, and its share of the counts.
// (The state goes by pointer: a struct of narrow fields passed by value is
// built on the stack and copied in wide loads that stall on the narrow
// stores just made.)
func (c *Cache) lift(fi *fileIndex, s int32, idx int64, b *blockState) {
	x := c.nd(s)
	b.file, b.idx, b.spare, b.vh, b.dh = x.file, idx, -1, int32(x.valid(idx)), int32(x.dirtyTo(idx))
	if b.dh != 0 {
		b.times = c.dtimes[s]
	}
	if x.n > 1 {
		c.cut(fi, s, idx)
		return
	}
	c.lruUnlink(s)
	b.spare = s
}

// place puts block b of fi's file at the LRU front, referenced at now, and
// returns the slot of its node: the front node, one block longer, where
// joinsFront says that is exact, else a node of its own, in b's spare slot
// or a new one.
func (c *Cache) place(fi *fileIndex, b *blockState, now time.Duration) int32 {
	if c.joinsFront(b, now) {
		f := c.lruFront
		x := c.nd(f)
		x.n++
		x.validHi, x.dirtyHi = int16(b.vh), int16(b.dh)
		fi.dense[b.idx] = f + 1
		if b.spare >= 0 {
			c.freeNode(b.spare)
		}
		return f
	}
	t := b.spare
	if t < 0 {
		t = c.allocNode()
	}
	// Field by field: a composite literal is built on the stack and copied
	// in wide loads that stall on the narrow stores just made.
	x := c.nd(t)
	x.file, x.first, x.n, x.lastRef = b.file, b.idx, 1, now
	x.fi, x.validHi, x.dirtyHi = fi.id, int16(b.vh), int16(b.dh)
	if b.dh != 0 {
		c.setTimes(t, b.times)
	}
	fi.put(b.idx, t)
	c.lruPushFront(t)
	return t
}

// joinsFront reports whether block b, referenced at now, extends the front
// node exactly: the node's front-most block is the one before b, fully
// valid, and was referenced at the same instant, and the node is clean if b
// is, or else dirty with b's write times and its front-most block fully
// dirty. A block past the dense index stays a node of its own.
func (c *Cache) joinsFront(b *blockState, now time.Duration) bool {
	if c.lruFront < 0 || b.idx >= fiDenseMax {
		return false
	}
	f := c.nd(c.lruFront)
	if f.lastRef != now || f.file != b.file || f.first+int64(f.n) != b.idx || f.validHi != BlockSize {
		return false
	}
	if b.dh == 0 {
		return f.dirtyHi == 0
	}
	return f.dirtyHi == BlockSize && c.dtimes[c.lruFront] == b.times
}

// cut takes block idx out of node s of fi's file, which holds others too.
// The rest of the node stays where it sits: one block shorter at an end,
// or split in two around idx. The block's own index entry is the caller's
// to rewrite, and so is its share of the dirty counts.
func (c *Cache) cut(fi *fileIndex, s int32, idx int64) {
	switch x := c.nd(s); idx {
	case x.first:
		c.shorten(s, 1, false)
	case x.last():
		c.shorten(s, 1, true)
	default:
		c.split(fi, s, idx)
	}
}

// shorten takes k blocks off node s, which holds more: its front-most ones
// when front is set, else its tail-end ones. The new front-most block was
// inside the node, so fully valid, and fully dirty if the node is.
func (c *Cache) shorten(s int32, k int32, front bool) {
	x := c.nd(s)
	x.n -= k
	if !front {
		x.first += int64(k)
		return
	}
	x.validHi = BlockSize
	if x.dirty() {
		x.dirtyHi = BlockSize
	}
}

// split cuts node s of fi's file in two around block idx, inside it. The
// side with fewer blocks moves to a new slot, its index entries relabelled,
// and is linked beside s so that no block changes place; a dirty node's
// new side takes its write times.
func (c *Cache) split(fi *fileIndex, s int32, idx int64) {
	u := c.allocNode()
	x, y := c.nd(s), c.nd(u)
	full := int16(0) // the dirty watermark of a block inside the node
	if x.dirty() {
		full = BlockSize
		c.setTimes(u, c.dtimes[s])
	}
	y.file, y.fi, y.lastRef = x.file, x.fi, x.lastRef
	behind, ahead := idx-x.first, x.last()-idx
	if behind <= ahead {
		y.first, y.n, y.validHi, y.dirtyHi = x.first, int32(behind), BlockSize, full
		x.first, x.n = idx+1, int32(ahead)
	} else {
		y.first, y.n, y.validHi, y.dirtyHi = idx+1, int32(ahead), x.validHi, x.dirtyHi
		x.n, x.validHi, x.dirtyHi = int32(behind), BlockSize, full
	}
	c.lruLinkBeside(u, s, behind <= ahead)
	for j := y.first; j < y.first+int64(y.n); j++ {
		fi.dense[j] = u + 1
	}
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

// drop removes k blocks from node s, and their index entries and their
// share of the counts: its k front-most blocks when front is set, else its
// k tail-end ones, and the node itself when k is all it holds. A file
// index left empty is released. It returns the dirty bytes the blocks
// held, which never reach the server.
func (c *Cache) drop(s int32, k int32, front bool) int64 {
	x := c.nd(s)
	fi := c.fis[x.fi]
	from := x.first
	if front {
		from = x.last() - int64(k) + 1
	}
	for j := from; j < from+int64(k); j++ {
		fi.del(j)
	}
	fi.n -= int(k)
	c.nblocks -= int(k)
	var lost int64
	if x.dirty() {
		// The front-most block holds dirtyHi bytes, the others whole ones.
		lost = int64(k) * BlockSize
		if front || k == x.n {
			lost += int64(x.dirtyHi) - BlockSize
		}
		c.dirtyBytes -= lost
		c.noteCleaned(fi, x.file, k)
	}
	if k < x.n {
		c.shorten(s, k, front)
		return lost
	}
	c.lruUnlink(s)
	if fi.n == 0 {
		delete(c.files, x.file)
		fi.nextFree, c.fiFree = c.fiFree, fi.id+1
	}
	c.freeNode(s)
	return lost
}

// noteWrite records a write of block b's bytes up to h, at now, in b's
// state and the dirty counts of fi (file's index), keeping the dirty-file
// set and the cache's age bound in step: the block's delayed-write clock
// starts if it was clean. The bound is a true minimum: now need not be
// monotone.
func (c *Cache) noteWrite(fi *fileIndex, b *blockState, h int32, now time.Duration) {
	if b.dh == 0 {
		b.times.dirtyAt = now
		fi.dirty++
		if fi.dirty == 1 {
			if c.dirtyFiles == nil {
				c.dirtyFiles = make(map[uint64]*fileIndex)
			}
			c.dirtyFiles[b.file] = fi
		}
		c.ndirty++
		if c.ndirty == 1 || now < c.oldestDirty {
			c.oldestDirty = now
		}
	}
	b.times.lastWr = now
	c.dirtyBytes += int64(max(b.dh, h) - b.dh)
	b.vh, b.dh = max(b.vh, h), max(b.dh, h)
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

// evictOne removes the least-recently-used block of a cache that holds
// one, to make room, returning a writeback if it was dirty. Clean blocks
// near the LRU tail are preferred — Sprite's cleaner normally retires
// dirty data long before it reaches the tail, so dirty evictions are the
// rare forced case the paper notes ("usually only clean blocks are
// replaced"): the victim is the first clean block within cleanScanDepth
// positions of the tail, else the tail. vmTake marks the eviction as a
// page handoff to the VM system rather than replacement by file data.
//
// The walk starts at the tail, walks nodes and counts blocks: the first
// clean node it meets before it has passed cleanScanDepth blocks holds the
// victim at its tail end. Dirty blocks come in extents — the blocks one
// write dirtied at one instant are one node — so the walk passes few nodes.
func (c *Cache) evictOne(now time.Duration, vmTake bool) (Writeback, bool) {
	s := c.lruBack
	for cand, depth := s, int32(0); cand >= 0 && depth < cleanScanDepth; {
		x := c.nd(cand)
		if !x.dirty() {
			s = cand
			break
		}
		depth += x.n
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
	c.drop(s, 1, false)
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

// evictTo evicts LRU victims until at most limit blocks are resident,
// appending the dirty ones' writebacks to out. A miss evicts to capacity-1,
// which is only ever one victim: no cache holds more than its capacity.
func (c *Cache) evictTo(limit int, vmTake bool, now time.Duration, out *[]Writeback) {
	for c.nblocks > limit {
		if wb, dirty := c.evictOne(now, vmTake); dirty {
			*out = append(*out, wb)
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
//
// The request goes as runs of blocks: resident blocks of one node that hold
// the bytes asked of them (hitRun), whose first block is touched and the
// rest of which extend the node it lands in, in one step; or absent blocks
// (absentTo), which fill installs as per-block placement would, a stretch
// of them at a time between evictions.
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
	// The file's index is resolved once per call; fill replaces it when the
	// eviction that made room released it.
	fi := c.files[file]
	for idx := first; idx <= last; {
		s := int32(-1)
		if fi != nil {
			s = fi.get(idx)
		}
		if s >= 0 && c.covers(s, idx, offset, length) {
			k := c.hitRun(fi, s, idx, last, offset, length, now)
			c.countRead(attr, k)
			idx += k
			continue
		}
		// Miss: fetch from the server the bytes the file holds in the block
		// past its watermark — all of them when it is absent, the rest when
		// it is partially valid.
		k := int64(1)
		var fetch int64
		if s < 0 {
			end := c.absentTo(fi, idx, last)
			fi, fetch = c.fill(fi, file, idx, end, last, fileSize, now, &res.Evicted)
			k = end - idx + 1
		} else {
			validEnd := min(fileSize-idx*BlockSize, BlockSize)
			vh := c.nd(s).valid(idx)
			x := c.nd(c.touch(fi, s, idx, now))
			fetch = max(validEnd-int64(vh), 0)
			x.validHi = max(vh, int16(validEnd))
		}
		c.countRead(attr, k)
		c.countReadMiss(attr, k)
		res.MissBytes += fetch
		res.MissBlocks += int(k)
		res.MissRuns = appendRun(res.MissRuns, idx, k)
		// Sequential prefetch (ablation): pull the following blocks too, a
		// block at a time. A miss is one block long here (absentTo).
		for p := int64(1); p <= int64(c.prefetch); p++ {
			pi := idx + p
			if pi*BlockSize >= fileSize || fi.get(pi) >= 0 {
				break
			}
			fi, fetch = c.fill(fi, file, pi, pi, pi, fileSize, now, &res.Evicted)
			res.MissBytes += fetch
			res.MissBlocks++
			res.MissRuns = appendRun(res.MissRuns, pi, 1)
		}
		idx += k
	}
	c.addBytesRead(attr, length, res.MissBytes)
	c.runScratch = res.MissRuns[:0]
	c.wbScratch = res.Evicted[:0]
	return res
}

// hitRun makes a run of resident blocks the most recently used, referenced
// at now, and returns its length: the blocks of node s from idx, which the
// request covers, through the request's last block or the node's
// front-most, less that one if the request wants bytes of it that are not
// valid. idx goes through touch. Each block after it would then be lifted
// from the tail end of the node holding it, whole and with that node's
// dirty state and write times, and joined to the front node, where idx
// landed: so in one step the front node takes them, and the node they were
// in is shortened by them, or freed when they are all it holds.
func (c *Cache) hitRun(fi *fileIndex, s int32, idx, last, offset, length int64, now time.Duration) int64 {
	end := min(last, c.nd(s).last())
	if end > idx && !c.covers(s, end, offset, length) {
		end--
	}
	f := c.touch(fi, s, idx, now)
	if end == idx {
		return 1
	}
	// A node of two blocks or more lies in the dense index.
	k := int32(end - idx)
	from := fi.dense[idx+1] - 1
	y := c.nd(from)
	vh, dh := y.valid(end), y.dirtyTo(end)
	if k == y.n {
		c.lruUnlink(from)
		c.freeNode(from)
	} else {
		c.shorten(from, k, false)
	}
	c.extend(fi, f, idx+1, k, vh, dh)
	return int64(k) + 1
}

// absentTo returns the last block of the stretch from idx, which is not
// resident, through the request's last block, that holds no resident block
// and lies in the dense index. Under the prefetch ablation it is idx: the
// fetch of idx makes the blocks after it resident.
func (c *Cache) absentTo(fi *fileIndex, idx, last int64) int64 {
	if c.prefetch > 0 || idx >= fiDenseMax {
		return idx
	}
	end := min(last, fiDenseMax-1)
	if fi != nil {
		for j := idx + 1; j <= min(end, int64(len(fi.dense))-1); j++ {
			if fi.dense[j] != 0 {
				return j - 1
			}
		}
	}
	return end
}

// fill installs the absent blocks idx through end of fi's file, of a
// request that inserts blocks up to last, as placing each in turn does: a
// block evicts only when the cache is full, is admitted and placed, and the
// blocks after it that then fit without an eviction extend its node at
// once. So every eviction falls where the per-block step makes it, and the
// victims, ages, counts and node slots are its own. Every block but end is
// whole. It returns the file's index, which admit may replace, and the
// bytes the blocks fetch.
func (c *Cache) fill(fi *fileIndex, file uint64, idx, end, last, fileSize int64, now time.Duration, out *[]Writeback) (*fileIndex, int64) {
	validEnd := min(fileSize-end*BlockSize, BlockSize)
	b := blockState{file: file, spare: -1, vh: BlockSize}
	for j := idx; j <= end; {
		c.evictTo(c.capacity-1, false, now, out)
		fi = c.admit(fi, file, last)
		if j == end {
			b.vh = int32(validEnd)
		}
		b.idx = j
		f := c.place(fi, &b, now)
		j++
		if k := min(end-j+1, int64(c.capacity-c.nblocks)); k > 0 {
			vh := int16(BlockSize)
			if j+k > end {
				vh = int16(validEnd)
			}
			c.extend(fi, f, j, int32(k), vh, 0)
			fi.n += int(k)
			c.nblocks += int(k)
			j += k
		}
	}
	return fi, (end-idx)*BlockSize + validEnd
}

// extend joins the k blocks from idx, which follow node f's front-most, to
// f, the front node, as place joins each: their watermarks are the last
// one's, vh and dh, the others being whole. Their counts are the caller's.
func (c *Cache) extend(fi *fileIndex, f int32, idx int64, k int32, vh, dh int16) {
	x := c.nd(f)
	x.n += k
	x.validHi, x.dirtyHi = vh, dh
	for j := idx; j < idx+int64(k); j++ {
		fi.dense[j] = f + 1
	}
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
// that is exact (joinsFront), so the blocks one write dirties at one
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
	fi := c.files[file]         // replaced by admit when released, as in Read
	b := blockState{file: file} // each block in turn; noteWrite sets a clean one's times
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
		if s >= 0 {
			c.lift(fi, s, idx, &b)
		} else {
			b.idx, b.spare, b.vh, b.dh = idx, -1, 0, 0
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
				res.FetchRuns = appendRun(res.FetchRuns, idx, 1)
				b.vh = int32(existingEnd)
			}
			c.evictTo(c.capacity-1, false, now, &res.Evicted)
			fi = c.admit(fi, file, last)
		}
		c.noteWrite(fi, &b, int32(hi), now) // hi is at least 1: the block is left dirty
		c.place(fi, &b, now)
	}
	c.st.All.BytesWritten += length
	if attr.Migrated {
		c.st.Migrated.BytesWritten += length
	}
	c.runScratch = res.FetchRuns[:0]
	c.wbScratch = res.Evicted[:0]
	return res
}

// countRead counts k block reads.
func (c *Cache) countRead(attr Attr, k int64) {
	c.st.All.ReadOps += k
	if attr.Paging {
		c.st.All.PagingReadOps += k
	}
	if attr.Migrated {
		c.st.Migrated.ReadOps += k
		if attr.Paging {
			c.st.Migrated.PagingReadOps += k
		}
	}
}

// countReadMiss counts k block read misses.
func (c *Cache) countReadMiss(attr Attr, k int64) {
	c.st.All.ReadMisses += k
	if attr.Paging {
		c.st.All.PagingReadMiss += k
	}
	if attr.Migrated {
		c.st.Migrated.ReadMisses += k
		if attr.Paging {
			c.st.Migrated.PagingReadMiss += k
		}
	}
}

// addBytesRead counts a read of n bytes, missed of which the cache
// fetched (the read's MissBytes).
func (c *Cache) addBytesRead(attr Attr, n, missed int64) {
	c.st.All.BytesRead += n
	c.st.All.BytesReadMissed += missed
	if attr.Paging {
		c.st.All.PagingBytesRead += n
		c.st.All.PagingBytesMiss += missed
	}
	if attr.Migrated {
		c.st.Migrated.BytesRead += n
		c.st.Migrated.BytesReadMissed += missed
		if attr.Paging {
			c.st.Migrated.PagingBytesRead += n
			c.st.Migrated.PagingBytesMiss += missed
		}
	}
}
