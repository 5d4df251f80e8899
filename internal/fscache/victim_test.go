package fscache

import (
	"testing"
	"time"
	"unsafe"
)

// The replacement rule at its edges: the victim is the first clean block
// within cleanScanDepth positions of the LRU tail, else the tail itself.
// These tests state the rule for caches whose tail is a long run of dirty
// blocks, and for everything that can happen to a block of that run
// between two evictions.

const (
	runFile  = 1000           // block i of the dirty run is block 0 of file runFile+i
	cleanID  = 1              // the one clean block behind the run is block 0 of this file
	freshID  = 5000           // evictions are forced by reading files from here up
	runStart = 10 * time.Hour // the run's blocks turn dirty from here, 1 ns apart
)

// dirtyRunThenClean returns a full cache whose LRU order is, tail first, n
// dirty blocks followed by one clean block. Each dirty block is its own
// file, so one of them can be flushed, deleted or truncated alone. Block
// early, if there is one, turned dirty at time zero, long before the rest
// (now need not be monotone), so a cleaner tick can be due for it alone.
func dirtyRunThenClean(n, early int) *Cache {
	c := New(n + 1)
	for i := 0; i < n; i++ {
		at := runStart + time.Duration(i)
		if i == early {
			at = 0
		}
		c.Write(runFile+uint64(i), 0, BlockSize, 0, noAttr, at)
	}
	c.Read(cleanID, 0, BlockSize, BlockSize, noAttr, runStart+time.Duration(n))
	return c
}

// forceEviction reads a never-seen block into the full cache and returns
// the dirty victim's writeback, if the victim was dirty.
func forceEviction(t *testing.T, c *Cache, k int) []Writeback {
	t.Helper()
	before := c.NumBlocks()
	res := c.Read(freshID+uint64(k), 0, BlockSize, BlockSize, noAttr, 11*time.Hour)
	if c.NumBlocks() != before || c.NumBlocks() != c.Capacity() {
		t.Fatalf("eviction %d: %d blocks before, %d after, capacity %d", k, before, c.NumBlocks(), c.Capacity())
	}
	return append([]Writeback(nil), res.Evicted...)
}

// wantVictim checks which block an eviction took: run block i, or the
// clean block behind the run for i < 0.
func wantVictim(t *testing.T, c *Cache, evicted []Writeback, i int) {
	t.Helper()
	if i < 0 {
		if c.Contains(cleanID, 0) || len(evicted) != 0 {
			t.Fatalf("the clean block in reach was not the victim (resident %v, writebacks %+v)", c.Contains(cleanID, 0), evicted)
		}
		return
	}
	file := runFile + uint64(i)
	if c.Contains(file, 0) {
		t.Fatalf("run block %d survived; writebacks %+v, clean block resident %v", i, evicted, c.Contains(cleanID, 0))
	}
	if !c.Contains(cleanID, 0) {
		t.Fatalf("the clean block went as well as run block %d", i)
	}
}

func TestCleanScanDepthBoundary(t *testing.T) {
	// A clean block at depth cleanScanDepth-1 is the last one in reach.
	c := dirtyRunThenClean(cleanScanDepth-1, -1)
	wantVictim(t, c, forceEviction(t, c, 0), -1)
	if c.Stats().Cleaned[CleanEvict] != 0 {
		t.Fatal("a dirty block was written back although a clean one was in reach")
	}

	// One position deeper it is out of reach and the dirty tail goes.
	c = dirtyRunThenClean(cleanScanDepth, -1)
	evicted := forceEviction(t, c, 0)
	wantVictim(t, c, evicted, 0)
	if len(evicted) != 1 || evicted[0].File != runFile || evicted[0].Reason != CleanEvict {
		t.Fatalf("writebacks %+v, want the tail's evict writeback", evicted)
	}
	// The next eviction finds the clean block one position nearer.
	wantVictim(t, c, forceEviction(t, c, 1), -1)
}

func TestVictimAfterTheDirtyRunChanges(t *testing.T) {
	// 514 dirty blocks, then the clean one. Two evictions take run blocks 0
	// and 1 under the depth cap and leave blocks 2..513 (512 of them) with
	// the clean block just out of reach. What happens to the run next
	// decides the third victim.
	hit := func(i int) func(*Cache) {
		return func(c *Cache) {
			if res := c.Read(runFile+uint64(i), 0, BlockSize, BlockSize, noAttr, 11*time.Hour); res.MissBlocks != 0 {
				panic("run block not resident")
			}
		}
	}
	cases := []struct {
		name   string
		change func(*Cache)
		victim int // run block index, or -1 for the clean block
	}{
		{"nothing", func(*Cache) {}, 2},
		{"block read", hit(5), -1},
		{"deepest block in reach read", hit(512), -1},
		{"last block of the run read", hit(513), -1},
		{"block rewritten", func(c *Cache) { c.Write(runFile+5, 0, 100, BlockSize, noAttr, 11*time.Hour) }, -1},
		{"block deleted", func(c *Cache) { c.Delete(runFile + 5) }, -1},
		{"block invalidated", func(c *Cache) { c.Invalidate(runFile + 5) }, -1},
		{"block truncated to nothing", func(c *Cache) { c.Truncate(runFile+5, 0) }, -1},
		{"block trimmed", func(c *Cache) { c.Truncate(runFile+5, 100) }, 2}, // still dirty, still in place
		{"block fsynced", func(c *Cache) { c.Flush(runFile+7, CleanFsync, 11*time.Hour) }, 7},
		{"block recalled", func(c *Cache) { c.Flush(runFile+7, CleanRecall, 11*time.Hour) }, 7},
		{"tail fsynced", func(c *Cache) { c.Flush(runFile+2, CleanFsync, 11*time.Hour) }, 2},
		{"block cleaned by the daemon", func(c *Cache) {
			// Run block 7 alone is due.
			if wbs := c.Clean(WritebackDelay); len(wbs) != 1 || wbs[0].File != runFile+7 {
				panic("the tick was meant to clean run block 7 alone")
			}
		}, 7},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := dirtyRunThenClean(514, 7)
			wantVictim(t, c, forceEviction(t, c, 0), 0)
			wantVictim(t, c, forceEviction(t, c, 1), 1)
			tc.change(c)
			if c.NumBlocks() < c.Capacity() {
				// The change freed a slot: shrink so the next read still evicts.
				c.SetCapacity(c.NumBlocks(), false, 11*time.Hour)
			}
			wantVictim(t, c, forceEviction(t, c, 2), tc.victim)
			if err := c.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestVictimAfterDiscardAll(t *testing.T) {
	// A crash between two evictions: the second finds its victim among
	// the blocks written since.
	c := dirtyRunThenClean(cleanScanDepth+2, -1)
	wantVictim(t, c, forceEviction(t, c, 0), 0)
	if loss := c.DiscardAll(11 * time.Hour); loss.Blocks != cleanScanDepth+3 || loss.DirtyBlocks != cleanScanDepth+1 {
		t.Fatalf("loss %+v", loss)
	}
	c.SetCapacity(4, false, 11*time.Hour)
	for i := 0; i < 3; i++ {
		c.Write(runFile+uint64(i), 0, BlockSize, 0, noAttr, 11*time.Hour)
	}
	c.Read(cleanID, 0, BlockSize, BlockSize, noAttr, 11*time.Hour)
	wantVictim(t, c, forceEviction(t, c, 1), -1)
	// Three dirty blocks and the block eviction 1 read: that one goes.
	if evicted := forceEviction(t, c, 2); c.Contains(freshID+1, 0) || len(evicted) != 0 {
		t.Fatalf("the clean block in reach was not the victim (writebacks %+v)", evicted)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// A node is what every stretch of resident blocks of every client pays: 48
// bytes, the watermarks in two int16s and a dirty block's write times
// elsewhere.
func TestBlockSizeUnchanged(t *testing.T) {
	if got := unsafe.Sizeof(node{}); got != 48 {
		t.Fatalf("node is %d bytes, want 48", got)
	}
}
