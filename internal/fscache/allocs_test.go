package fscache

import (
	"testing"
	"time"
)

// The cleaner's periodic sweep is required to be allocation-free in
// steady state: after the nodes, per-file indexes and scratch
// buffers reach their high-water marks, dirtying files and sweeping them
// with Clean must not touch the garbage collector. `make allocscheck`
// runs these gates alongside the scheduler's and network's.

func TestCleanSweepZeroAllocSteadyState(t *testing.T) {
	const nfiles = 16
	const young = nfiles + 1 // written a second before each sweep: dirty, not due
	c := New(256)
	now := time.Duration(0)
	// cycle dirties every file, lets the writeback delay pass with the young
	// file written a second before its end, and sweeps. The sweep sorts every
	// dirty file id, the young one's too, and must flush the due files alone.
	cycle := func() {
		now += time.Second
		for f := uint64(1); f <= nfiles; f++ {
			c.Write(f, 0, 2*BlockSize, 0, noAttr, now)
		}
		now += WritebackDelay - time.Second
		c.Write(young, 0, BlockSize, 0, noAttr, now)
		now += time.Second
		// Each file's two blocks, written at one instant, are one run.
		wbs := c.Clean(now)
		if len(wbs) != nfiles {
			t.Fatalf("swept %d writebacks, want the %d due files' runs", len(wbs), nfiles)
		}
		if wbs[0].N != 2 || wbs[nfiles-1].File != nfiles {
			t.Fatalf("swept %+v, want one run of 2 blocks per due file", wbs)
		}
		if !c.FileDirty(young) {
			t.Fatal("the sweep flushed a file dirty for one second")
		}
		// Flushed here, the young file turns dirty afresh next cycle.
		c.Flush(young, CleanFsync, now)
	}
	// Warm-up: populate every index and scratch buffer once.
	cycle()

	allocs := testing.AllocsPerRun(100, cycle)
	if allocs != 0 {
		t.Fatalf("dirty+Clean cycle allocated %.1f/op in steady state, want 0", allocs)
	}
}

// TestFlushFileZeroAllocSteadyState pins the same property for the
// synchronous flush path (Flush, whatever the reason).
func TestFlushFileZeroAllocSteadyState(t *testing.T) {
	c := New(64)
	now := time.Duration(0)
	c.Write(7, 0, BlockSize, 0, noAttr, now)
	c.Flush(7, CleanFsync, now)

	allocs := testing.AllocsPerRun(100, func() {
		now += time.Second
		c.Write(7, 0, BlockSize, 0, noAttr, now)
		if wbs := c.Flush(7, CleanFsync, now); len(wbs) != 1 {
			t.Fatalf("fsync returned %d writebacks, want 1", len(wbs))
		}
	})
	if allocs != 0 {
		t.Fatalf("write+Fsync cycle allocated %.1f/op in steady state, want 0", allocs)
	}
}

// TestEvictDirtyTailZeroAlloc pins the forced case: a cache holding only
// dirty blocks replaces its dirty tail on every miss, and in steady state
// neither the victim search nor the writeback it hands back allocates.
func TestEvictDirtyTailZeroAlloc(t *testing.T) {
	const capacity = 64
	c := New(capacity)
	now := time.Duration(0)
	next := int64(0)
	write := func() {
		now += time.Millisecond
		// Block indices cycle over twice the capacity: never resident.
		res := c.Write(1, next%(2*capacity)*BlockSize, BlockSize, 0, noAttr, now)
		if next++; next > capacity && (len(res.Evicted) != 1 || res.Evicted[0].Reason != CleanEvict) {
			t.Fatalf("write %d evicted %+v, want one dirty victim", next, res.Evicted)
		}
	}
	for i := 0; i < 3*capacity; i++ {
		write()
	}
	if allocs := testing.AllocsPerRun(1000, write); allocs != 0 {
		t.Fatalf("dirty-tail eviction allocated %.1f/op in steady state, want 0", allocs)
	}
}

// TestDirtyShrinkZeroAlloc pins the virtual memory system's claim on a
// cache that holds only dirty blocks: every shrink writes back the dirty
// blocks it evicts, and in steady state hands them over in the cache's
// writeback buffer, as Clean and Flush do, without allocating.
func TestDirtyShrinkZeroAlloc(t *testing.T) {
	const files, blocks = 9, 8 // eight files of eight blocks fill the cache
	c := New((files - 1) * blocks)
	now, k := time.Duration(0), uint64(0)
	// cycle lends the cache a file's worth of pages, writes the file the
	// last shrink evicted, and takes the pages back for the VM system: the
	// shrink evicts the oldest file, dirty, from the tail.
	cycle := func() {
		now += time.Second
		c.GrowBy(blocks)
		c.Write(k%files+1, 0, blocks*BlockSize, 0, noAttr, now)
		k++
		var n int32
		for _, wb := range c.SetCapacity(c.Capacity()-blocks, true, now) {
			if wb.Reason != CleanVM {
				t.Fatalf("shrink wrote back %+v, want reason %v", wb, CleanVM)
			}
			n += wb.N
		}
		if k > files-1 && n != blocks {
			t.Fatalf("shrink %d wrote back %d blocks, want %d", k, n, blocks)
		}
	}
	for range 2 * files {
		cycle()
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("dirty shrink allocated %.1f/op in steady state, want 0", allocs)
	}
}

// TestCleanFillDirtyStateZeroAlloc pins what a block that is never written
// costs: a cache filled from cold by reads alone allocates no write times,
// no dirty-file set and no more than coldFillBudget bytes per resident
// block, by BenchmarkColdFill's accounting (the file's dense index, the one
// node its blocks share, the result scratch). One write then gives the
// write times an entry per slot the nodes have room for.
func TestCleanFillDirtyStateZeroAlloc(t *testing.T) {
	// B/block. The fill reads 8.3: the dense index doubled up to its 4 bytes
	// a block (8), and 0.3 of cache, file map, node and scratch.
	const coldFillBudget = 9
	c, bytesPerBlock := coldFill(4)
	if c.NumBlocks() != c.Capacity() || c.DirtyBytes() != 0 {
		t.Fatalf("cold fill left %d of %d blocks resident, %d bytes dirty", c.NumBlocks(), c.Capacity(), c.DirtyBytes())
	}
	if len(c.dtimes) != 0 || c.dirtyFiles != nil {
		t.Fatalf("read-only cold fill allocated write times for %d slots (dirty-file set made: %v)", len(c.dtimes), c.dirtyFiles != nil)
	}
	if len(c.nodes) != 1 {
		t.Fatalf("4096 one-block reads of one file at one instant left %d nodes, want 1", len(c.nodes))
	}
	if bytesPerBlock > coldFillBudget {
		t.Fatalf("read-only cold fill allocated %.1f B per resident block, want at most %d", bytesPerBlock, coldFillBudget)
	}
	t.Logf("%.1f B/block", bytesPerBlock)

	// The write splits the stretch around block 100: three nodes.
	c.Write(1, 100*BlockSize, 1, 4096*BlockSize, noAttr, 0)
	if len(c.nodes) != 3 || len(c.dtimes) != cap(c.nodes) {
		t.Fatalf("one write into a full clean cache left %d nodes and write times for %d slots, want 3 and %d",
			len(c.nodes), len(c.dtimes), cap(c.nodes))
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestExtentFillZeroAlloc pins boot's shape in steady state: a warm cache
// reads a program's 175 pages cold in one call, and the stretch they make
// pushes out, block by block, an older stretch of the same length. The
// evicted stretch's node and file index are what the new one reuses.
func TestExtentFillZeroAlloc(t *testing.T) {
	const stretch = 175
	c := New(2 * stretch)
	now, file := time.Duration(0), uint64(0)
	boot := func() {
		now += time.Second
		file++
		res := c.Read(file, 0, stretch*BlockSize, stretch*BlockSize, Attr{Paging: true}, now)
		if res.MissBlocks != stretch || (file > 2 && c.Contains(file-2, stretch-1)) {
			t.Fatalf("boot %d missed %d blocks; the stretch before last resident: %v", file, res.MissBlocks, c.Contains(file-2, stretch-1))
		}
	}
	for i := 0; i < 4; i++ {
		boot()
	}
	if allocs := testing.AllocsPerRun(100, boot); allocs != 0 {
		t.Fatalf("a cold stretch evicting an older one allocated %.1f/op in steady state, want 0", allocs)
	}
	if len(c.nodes) > 3 {
		t.Fatalf("two stretches took %d node slots, want at most 3", len(c.nodes))
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestExtentSplitZeroAlloc pins the cycle that cuts stretches and mends
// them: a file read whole at one instant is one node; hits inside it at
// later instants split it in three, each; reading it whole again joins the
// pieces back into one node at the front; and a cold file of the same
// length refills the cache behind it, evicting the previous cold one.
func TestExtentSplitZeroAlloc(t *testing.T) {
	const blocks = 64
	const size = blocks * BlockSize
	c := New(2 * blocks)
	now, fresh := time.Duration(0), uint64(100)
	cycle := func() {
		now += time.Second
		c.Read(1, 0, size, size, noAttr, now)
		if x := c.nd(c.lruFront); x.file != 1 || x.n != blocks {
			t.Fatalf("the re-read file's front node holds %d blocks of file %d, want all %d of file 1", x.n, x.file, blocks)
		}
		for _, idx := range [...]int64{blocks / 2, blocks / 4, 3 * blocks / 4, blocks / 2} {
			now += time.Millisecond
			if res := c.Read(1, idx*BlockSize, BlockSize, size, noAttr, now); res.MissBlocks != 0 {
				t.Fatalf("block %d of the re-read file missed", idx)
			}
		}
		if x := c.nd(c.lruFront); x.n != 1 || c.nd(x.next).n != 1 {
			t.Fatalf("the last two hits left nodes of %d and %d blocks at the front, want one each", x.n, c.nd(x.next).n)
		}
		now += time.Millisecond
		fresh++
		if res := c.Read(fresh, 0, size, size, noAttr, now); res.MissBlocks != blocks {
			t.Fatalf("the cold file missed %d blocks, want %d", res.MissBlocks, blocks)
		}
	}
	for i := 0; i < 4; i++ {
		cycle()
	}
	slots := len(c.nodes)
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 || len(c.nodes) != slots {
		t.Fatalf("mid-node hits and refills allocated %.1f/cycle in steady state and took %d node slots, want 0 and the %d of the warm-up",
			allocs, len(c.nodes), slots)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestWriteCycleZeroAlloc pins the write paths in steady state: a burst
// written at one instant, an append at that instant that extends its
// extent, a rewrite of a resident dirty block inside it at a later one,
// Fsync, a truncate to zero, and a second file written and deleted. Once
// the nodes, indexes and scratch buffers reach their high-water marks, a
// cycle of them allocates nothing.
func TestWriteCycleZeroAlloc(t *testing.T) {
	const blocks = 4
	c := New(64)
	now := time.Duration(0)
	cycle := func() {
		now += time.Second
		c.Write(1, 0, blocks*BlockSize, 0, noAttr, now)
		c.Write(1, blocks*BlockSize, BlockSize, blocks*BlockSize, noAttr, now)
		if x := c.nd(c.lruFront); x.n != blocks+1 || !x.dirty() {
			t.Fatalf("the append left a front node of %d blocks (dirty %v), want one extent of %d", x.n, x.dirty(), blocks+1)
		}
		now += time.Millisecond
		c.Write(1, 2*BlockSize+10, 1, (blocks+1)*BlockSize, noAttr, now)
		if wbs := c.Flush(1, CleanFsync, now); len(wbs) != 3 {
			t.Fatalf("fsync of the extent split by the rewrite returned %d runs, want 3", len(wbs))
		}
		if c.Truncate(1, 0); c.Contains(1, 0) {
			t.Fatal("a truncate to zero left block 0 resident")
		}
		c.Write(2, 0, blocks*BlockSize, 0, noAttr, now)
		if saved := c.Delete(2); saved != blocks*BlockSize {
			t.Fatalf("delete saved %d bytes, want %d", saved, blocks*BlockSize)
		}
	}
	for i := 0; i < 4; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("the write cycle allocated %.1f/op in steady state, want 0", allocs)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestReadRunZeroAlloc pins the shapes of read run in steady state: a
// resident 64-block node read again at a later instant; a cold 64-block
// read into a full 4096-block cache, which evicts the LRU file's 64 blocks
// to make room; and a cold 64-block read into a full 256-block cache whose
// 200 oldest blocks are dirty, whose later blocks evict its own earlier
// ones. Each read allocates nothing once the nodes, the recycled file
// indexes and the scratch buffers reach their high-water marks.
func TestReadRunZeroAlloc(t *testing.T) {
	const blocks, capacity = 64, 4096
	const size = blocks * BlockSize
	c := New(capacity)
	now, file := time.Duration(0), uint64(0)
	cold := func() {
		now += time.Millisecond
		file++
		res := c.Read(file, 0, size, size, noAttr, now)
		if res.MissBlocks != blocks || c.NumBlocks() > capacity {
			t.Fatalf("cold read of file %d missed %d blocks and left %d resident", file, res.MissBlocks, c.NumBlocks())
		}
	}
	reread := func() {
		now += time.Millisecond
		if res := c.Read(file, 0, size, size, noAttr, now); res.MissBlocks != 0 {
			t.Fatalf("re-read of file %d missed %d blocks", file, res.MissBlocks)
		}
		if x := c.nd(c.lruFront); x.file != file || x.n != blocks {
			t.Fatalf("the re-read left a front node of %d blocks of file %d, want all %d of file %d", x.n, x.file, blocks, file)
		}
	}
	for i := 0; i < 2*capacity/blocks; i++ {
		cold()
		reread()
	}
	if c.NumBlocks() != capacity {
		t.Fatalf("warm-up left %d blocks resident, want a full cache of %d", c.NumBlocks(), capacity)
	}
	if allocs := testing.AllocsPerRun(100, reread); allocs != 0 {
		t.Fatalf("a resident node read again allocated %.1f/op in steady state, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, cold); allocs != 0 {
		t.Fatalf("a cold run evicting in a full cache allocated %.1f/op in steady state, want 0", allocs)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// The victim walk passes the 200 dirty blocks at the tail, so a run's
	// first 56 blocks take the clean ones behind them, the last run's, and
	// its last 8 take its own first 8.
	const small, dirty = 256, 200
	d := New(small)
	d.Write(0, 0, dirty*BlockSize, 0, noAttr, now)
	pastDirty := func() {
		now += time.Millisecond
		file++
		res := d.Read(file, 0, size, size, noAttr, now)
		if res.MissBlocks != blocks || len(res.Evicted) != 0 || d.NumBlocks() != small {
			t.Fatalf("cold read of file %d missed %d blocks, wrote back %d and left %d resident",
				file, res.MissBlocks, len(res.Evicted), d.NumBlocks())
		}
		if d.Contains(file, 7) || !d.Contains(file, 8) || d.DirtyBytes() != dirty*BlockSize {
			t.Fatalf("cold read of file %d did not evict its own first 8 blocks alone", file)
		}
	}
	pastDirty()
	if allocs := testing.AllocsPerRun(100, pastDirty); allocs != 0 {
		t.Fatalf("a cold run evicting its own blocks past dirty ones allocated %.1f/op in steady state, want 0", allocs)
	}
	if err := d.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
