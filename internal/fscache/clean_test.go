package fscache

import (
	"reflect"
	"slices"
	"testing"
	"time"
)

// The delayed-write rule at its edges: a file is written back at the first
// tick at which one of its resident dirty blocks has been dirty for the
// delay — not a nanosecond earlier, not later — whatever happened to the
// file's other blocks meanwhile and in whatever order the dirtying writes
// presented their clocks.

func TestCleanerTickAtTheBoundary(t *testing.T) {
	const t0, t1, t2, t3 = 10 * time.Second, 12 * time.Second, 14 * time.Second, 16 * time.Second
	cases := []struct {
		name  string
		setup func(*testing.T) *Cache // file 1's oldest dirty block (dirty at t0) leaves; blocks dirty at t1 and t2 stay
	}{
		{"oldest block evicted", func(t *testing.T) *Cache {
			c := New(3)
			c.Write(1, 0, BlockSize, 0, noAttr, t0)
			c.Write(1, BlockSize, BlockSize, BlockSize, noAttr, t1)
			c.Write(1, 2*BlockSize, BlockSize, 2*BlockSize, noAttr, t2)
			// All three blocks are dirty, so the tail goes, dirty.
			if res := c.Write(2, 0, BlockSize, 0, noAttr, t3); len(res.Evicted) != 1 || res.Evicted[0].Block != 0 {
				t.Fatalf("evicted %+v, want file 1 block 0", res.Evicted)
			}
			return c
		}},
		{"oldest block truncated away", func(t *testing.T) *Cache {
			c := New(8)
			c.Write(1, 2*BlockSize, BlockSize, 0, noAttr, t0)
			c.Write(1, 0, BlockSize, 3*BlockSize, noAttr, t1)
			c.Write(1, BlockSize, BlockSize, 3*BlockSize, noAttr, t2)
			c.Write(2, 0, BlockSize, 0, noAttr, t3)
			if saved := c.Truncate(1, 2*BlockSize); saved != BlockSize {
				t.Fatalf("truncate saved %d bytes, want one block", saved)
			}
			return c
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.setup(t)
			for _, now := range []time.Duration{t0 + WritebackDelay, t1 + WritebackDelay - 1} {
				if wbs := c.Clean(now); len(wbs) != 0 {
					t.Fatalf("tick at %v flushed %+v; the oldest resident dirty block is not due before %v", now, wbs, t1+WritebackDelay)
				}
			}
			wbs := c.Clean(t1 + WritebackDelay)
			if len(wbs) != 2 || wbs[0].File != 1 || wbs[1].File != 1 || wbs[0].Block >= wbs[1].Block {
				t.Fatalf("tick at the boundary flushed %+v, want both remaining blocks of file 1 in index order", wbs)
			}
			if !c.FileDirty(2) || c.FileDirty(1) {
				t.Fatalf("file 1 dirty %v, file 2 dirty %v after the tick", c.FileDirty(1), c.FileDirty(2))
			}
			if wbs := c.Clean(t3 + WritebackDelay); len(wbs) != 1 || wbs[0].File != 2 {
				t.Fatalf("file 2's own tick flushed %+v", wbs)
			}
		})
	}
}

func TestCleanerWithNonMonotoneWrites(t *testing.T) {
	// The second write of each pair carries an earlier clock than the
	// first. Expiry follows the earliest dirtying instant, per file and
	// over the whole cache.
	c := New(16)
	c.Write(1, 0, BlockSize, 0, noAttr, sec(100))
	c.Write(1, BlockSize, BlockSize, BlockSize, noAttr, sec(40))
	c.Write(2, 0, BlockSize, 0, noAttr, sec(100))
	c.Write(3, 0, BlockSize, 0, noAttr, sec(20))
	if wbs := c.Clean(sec(20) + WritebackDelay - 1); len(wbs) != 0 {
		t.Fatalf("flushed %+v before anything was due", wbs)
	}
	if wbs := c.Clean(sec(20) + WritebackDelay); len(wbs) != 1 || wbs[0].File != 3 {
		t.Fatalf("flushed %+v, want file 3", wbs)
	}
	if wbs := c.Clean(sec(40) + WritebackDelay - 1); len(wbs) != 0 {
		t.Fatalf("flushed %+v one nanosecond early", wbs)
	}
	if wbs := c.Clean(sec(40) + WritebackDelay); len(wbs) != 2 || wbs[0].File != 1 || wbs[1].File != 1 {
		t.Fatalf("flushed %+v, want both blocks of file 1", wbs)
	}
	if wbs := c.Clean(sec(100) + WritebackDelay); len(wbs) != 1 || wbs[0].File != 2 {
		t.Fatalf("flushed %+v, want file 2", wbs)
	}
}

// TestRecycledIndexServesASmallFile: a small file that takes over the index
// a large file released — its dense part still as long as the large file
// was — cleans, truncates and invalidates exactly as it does on an index
// of its own, and as the rules say.
func TestRecycledIndexServesASmallFile(t *testing.T) {
	const large = 3000 // blocks
	type results struct {
		cleaned       []Writeback // the cleaner's tick at 40 s
		saved         int64       // Truncate's
		truncBlocks   int         // resident after Truncate
		truncCleaned  int         // the cleaner's tick after Truncate
		invalidated   int         // Invalidate's
		invalidBlocks int         // resident after Invalidate
		check         error
	}
	run := func(recycled bool) results {
		c := New(2 * large)
		if recycled {
			c.Read(9, 0, large*BlockSize, large*BlockSize, noAttr, 0)
			c.Invalidate(9)
		}
		var r results
		c.Write(1, 0, BlockSize+10, 0, noAttr, sec(1))
		if recycled && len(c.files[1].dense) < large {
			t.Fatalf("file 1's index covers %d blocks, want the recycled %d", len(c.files[1].dense), large)
		}
		r.cleaned = slices.Clone(c.Clean(sec(40)))
		c.Write(1, 2*BlockSize, BlockSize, BlockSize+10, noAttr, sec(41))
		c.Read(1, 0, 3*BlockSize, 3*BlockSize, noAttr, sec(42))
		r.saved = c.Truncate(1, BlockSize+100)
		r.truncBlocks = c.NumBlocks()
		r.truncCleaned = len(c.Clean(sec(80)))
		c.Write(1, 0, 100, BlockSize+100, noAttr, sec(81))
		r.invalidated = c.Invalidate(1)
		r.invalidBlocks = c.NumBlocks()
		r.check = c.CheckInvariants()
		return r
	}
	want := results{
		cleaned: []Writeback{
			{File: 1, Block: 0, Bytes: BlockSize, Reason: CleanDelay, Age: sec(39)},
			{File: 1, Block: 1, Bytes: 10, Reason: CleanDelay, Age: sec(39)},
		},
		saved:       BlockSize, // block 2, dirty; block 1 was clean
		truncBlocks: 2,
		invalidated: 2,
	}
	for _, recycled := range []bool{false, true} {
		if got := run(recycled); !reflect.DeepEqual(got, want) {
			t.Errorf("recycled index %v: got %+v\nwant %+v", recycled, got, want)
		}
	}
}
