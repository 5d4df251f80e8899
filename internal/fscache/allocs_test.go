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
	c := New(256)
	now := time.Duration(0)
	dirtyAll := func() {
		for f := uint64(1); f <= nfiles; f++ {
			c.Write(f, 0, 2*BlockSize, 0, noAttr, now)
		}
	}
	// Warm-up: populate every index and scratch buffer once, then drain.
	dirtyAll()
	now += WritebackDelay
	c.Clean(now)

	allocs := testing.AllocsPerRun(100, func() {
		now += time.Second
		dirtyAll()
		now += WritebackDelay
		// Each file's two blocks, written at one instant, are one run.
		if wbs := c.Clean(now); len(wbs) != nfiles || wbs[0].N != 2 {
			t.Fatalf("swept %d writebacks (the first of %d blocks), want %d of 2", len(wbs), wbs[0].N, nfiles)
		}
	})
	if allocs != 0 {
		t.Fatalf("dirty+Clean cycle allocated %.1f/op in steady state, want 0", allocs)
	}
}

// TestFlushFileZeroAllocSteadyState pins the same property for the
// synchronous flush paths (Fsync/Recall share flushFile).
func TestFlushFileZeroAllocSteadyState(t *testing.T) {
	c := New(64)
	now := time.Duration(0)
	c.Write(7, 0, BlockSize, 0, noAttr, now)
	c.Fsync(7, now)

	allocs := testing.AllocsPerRun(100, func() {
		now += time.Second
		c.Write(7, 0, BlockSize, 0, noAttr, now)
		if wbs := c.Fsync(7, now); len(wbs) != 1 {
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
