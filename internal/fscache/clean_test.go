package fscache

import (
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
