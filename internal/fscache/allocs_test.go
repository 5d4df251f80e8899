package fscache

import (
	"testing"
	"time"
)

// The cleaner's periodic sweep is required to be allocation-free in
// steady state: after the block arena, per-file indexes and scratch
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
		if wbs := c.Clean(now); len(wbs) != 2*nfiles {
			t.Fatalf("swept %d writebacks, want %d", len(wbs), 2*nfiles)
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
// costs: a cache filled from cold by reads alone allocates none of the
// dirty blocks' write times, no dirty-file set and no more than
// coldFillBudget bytes per resident block, by BenchmarkColdFill's
// accounting (the arena, the file's dense index and the result scratch).
// One write then makes one chunk.
func TestCleanFillDirtyStateZeroAlloc(t *testing.T) {
	// B/block. The fill reads 50.5: the 40-byte block in its chunk's size
	// class (42), the dense index doubled up to its 4 bytes a block (8), and
	// 0.5 of chunk table and scratch.
	const coldFillBudget = 51
	c, bytesPerBlock := coldFill(4)
	if c.NumBlocks() != c.Capacity() || c.DirtyBytes() != 0 {
		t.Fatalf("cold fill left %d of %d blocks resident, %d bytes dirty", c.NumBlocks(), c.Capacity(), c.DirtyBytes())
	}
	if len(c.dtimes) != 0 || c.dirtyFiles != nil {
		t.Fatalf("read-only cold fill allocated write times for %d chunks (dirty-file set made: %v)", len(c.dtimes), c.dirtyFiles != nil)
	}
	if bytesPerBlock > coldFillBudget {
		t.Fatalf("read-only cold fill allocated %.1f B per resident block, want at most %d", bytesPerBlock, coldFillBudget)
	}
	t.Logf("%.1f B/block", bytesPerBlock)

	c.Write(1, 100*BlockSize, 1, 4096*BlockSize, noAttr, 0)
	made := 0
	for _, ch := range c.dtimes {
		if ch != nil {
			made++
		}
	}
	if made != 1 {
		t.Fatalf("one write into a full clean cache made %d chunks of write times, want 1", made)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
