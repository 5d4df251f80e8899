// Crash and recovery support: the operations the fault-injection layer
// (internal/faults) needs from a block cache. A cache is volatile memory —
// a workstation or server crash discards every resident block, and dirty
// bytes that never reached stable storage are the "data at risk" the
// paper's 30-second delayed-write policy bounds. DiscardAll measures that
// loss; RecoverFlush is the client half of the Sprite recovery protocol
// (replay dirty blocks to a restarted server); CheckInvariants is the
// structural self-audit the fault-schedule harness runs after every
// injected fault sequence.

package fscache

import (
	"fmt"
	"slices"
	"time"
)

// CrashLoss describes what a cache crash destroyed.
type CrashLoss struct {
	Blocks      int
	DirtyBlocks int
	DirtyBytes  int64
	// MaxDirtyAge is the longest any lost dirty block had been dirty.
	// Under a working delayed-write daemon it is bounded by the writeback
	// delay plus one cleaner period — the paper's "at most 30 seconds of
	// work" reliability claim, made checkable.
	MaxDirtyAge time.Duration
}

// DiscardAll models a crash: every resident block vanishes without
// writeback and the loss is measured. Counters survive (they model the
// measurement infrastructure, not the crashed memory).
func (c *Cache) DiscardAll(now time.Duration) CrashLoss {
	var loss CrashLoss
	for s := c.lruFront; s >= 0; {
		x := c.nd(s)
		loss.Blocks += int(x.n)
		if x.dirty() {
			loss.DirtyBlocks++
			loss.DirtyBytes += int64(x.dirtyHi)
			if age := now - c.dt(s).dirtyAt; age > loss.MaxDirtyAge {
				loss.MaxDirtyAge = age
			}
		}
		s = x.next
	}
	// The nodes and their write times keep their memory: every slot is
	// unused again and is rewritten whole when next handed out, and its
	// write times when its tenant first turns dirty.
	c.nodes = c.nodes[:0]
	c.freeN = -1
	c.lruFront = -1
	c.lruBack = -1
	c.forgetScan()
	// The file indexes still in the map hold stale slots; drop them. (The
	// fiFree pool holds only emptied, all-zero indexes and stays usable.)
	c.files = nil
	clear(c.dirtyFiles)
	c.nblocks = 0
	c.ndirty = 0
	c.dirtyBytes = 0
	return loss
}

// DirtyFiles returns the ids of all files with at least one dirty block,
// in ascending order so recovery replay is deterministic. The result is
// freshly allocated (recovery holds it across per-file flushes).
func (c *Cache) DirtyFiles() []uint64 {
	out := make([]uint64, 0, len(c.dirtyFiles))
	// order-free: collected, then sorted.
	for f := range c.dirtyFiles {
		out = append(out, f)
	}
	slices.Sort(out)
	return out
}

// RecoverFlush returns all dirty blocks of file for replay to a restarted
// server (the client half of Sprite's recovery protocol). Blocks become
// clean; the writebacks are tagged CleanRecover so recovery traffic is
// distinguishable from ordinary delayed writes in Table 9.
func (c *Cache) RecoverFlush(file uint64, now time.Duration) []Writeback {
	return c.flushFile(file, CleanRecover, now)
}

// CheckInvariants audits the cache's internal accounting: block counts,
// dirty counts and dirty bytes must match a full recount, every resident
// block must be indexed to the node that holds it and the LRU list must
// hold exactly the indexed blocks, every slot handed out must be resident
// or free, each node must be one dirty block or clean blocks with ordered
// watermarks, no dirty block may predate the age bounds the cleaner skips
// by, and the victim scan's remembered progress must describe the LRU tail
// as it is. It returns the first inconsistency found, or nil. The fault
// harness calls it after every injected fault sequence.
func (c *Cache) CheckInvariants() error {
	var ndirty, ndirtyFiles int
	var dirtyBytes int64
	lruLen, lruBlocks, passed := 0, 0, 0
	prev := int32(-1)
	for s := c.lruFront; s >= 0; {
		x := c.nd(s)
		if x.prev != prev {
			return fmt.Errorf("fscache: lru back-link broken at slot %d", s)
		}
		if lruLen++; lruLen > len(c.nodes) {
			return fmt.Errorf("fscache: lru holds more than the %d slots handed out", len(c.nodes))
		}
		if x.n < 1 || x.first < 0 || (x.n > 1 && x.last() >= fiDenseMax) {
			return fmt.Errorf("fscache: node at slot %d holds blocks [%d,%d] of file %#x", s, x.first, x.last(), x.file)
		}
		if x.validHi < 0 || x.validHi > BlockSize || x.dirtyHi < 0 || x.dirtyHi > x.validHi {
			return fmt.Errorf("fscache: node (%#x,%d) watermarks valid %d dirty %d", x.file, x.first, x.validHi, x.dirtyHi)
		}
		fi := c.files[x.file]
		for j := x.first; j <= x.last(); j++ {
			if fi == nil || fi.get(j) != s {
				return fmt.Errorf("fscache: block (%#x,%d) of the node at slot %d is not indexed to it", x.file, j, s)
			}
		}
		lruBlocks += int(x.n)
		if x.dirty() {
			if x.n != 1 {
				return fmt.Errorf("fscache: dirty node (%#x,%d) holds %d blocks", x.file, x.first, x.n)
			}
			ndirty++
			dirtyBytes += int64(x.dirtyHi)
			if int(s) >= len(c.dtimes) {
				return fmt.Errorf("fscache: dirty block (%#x,%d) at slot %d has no write times", x.file, x.first, s)
			}
			if dirtyAt := c.dt(s).dirtyAt; dirtyAt < fi.oldestDirty || dirtyAt < c.oldestDirty {
				return fmt.Errorf("fscache: block (%#x,%d) dirty since %v, before its file's bound %v or the cache's %v",
					x.file, x.first, dirtyAt, fi.oldestDirty, c.oldestDirty)
			}
		}
		if x.passed == c.scanEpoch {
			passed++
		}
		prev, s = s, x.next
	}
	if prev != c.lruBack {
		return fmt.Errorf("fscache: lru tail is %d, walk ended at %d", c.lruBack, prev)
	}
	if lruBlocks != c.nblocks {
		return fmt.Errorf("fscache: lru holds %d blocks, nblocks %d", lruBlocks, c.nblocks)
	}
	// Every block of every node is indexed to it; the index holding no more
	// than that makes the two the same.
	indexed := 0
	// order-free: an audit; any inconsistency fails it, whichever is named first.
	for f, fi := range c.files {
		fn, fd := 0, 0
		entry := func(s int32) error {
			if s < 0 || int(s) >= len(c.nodes) {
				return fmt.Errorf("fscache: file %#x indexes slot %d of %d", f, s, len(c.nodes))
			}
			fn++
			if c.nd(s).dirty() {
				fd++
			}
			return nil
		}
		for _, v := range fi.dense {
			if v != 0 {
				if err := entry(v - 1); err != nil {
					return err
				}
			}
		}
		// order-free: an audit; any inconsistency fails it, whichever is named first.
		for idx, s := range fi.sparse {
			if idx < fiDenseMax {
				return fmt.Errorf("fscache: sparse index holds small block index %d of file %#x", idx, f)
			}
			if err := entry(s); err != nil {
				return err
			}
		}
		if fn != fi.n {
			return fmt.Errorf("fscache: file %#x index count %d, recount %d", f, fi.n, fn)
		}
		if fn == 0 {
			return fmt.Errorf("fscache: empty file index for %#x not released", f)
		}
		if fd != fi.dirty {
			return fmt.Errorf("fscache: file %#x dirty count %d, recount %d", f, fi.dirty, fd)
		}
		if _, in := c.dirtyFiles[f]; in != (fd > 0) {
			return fmt.Errorf("fscache: file %#x has %d dirty blocks but dirty-set membership %v", f, fd, in)
		}
		if fd > 0 {
			ndirtyFiles++
		}
		indexed += fn
	}
	if indexed != c.nblocks {
		return fmt.Errorf("fscache: index holds %d blocks, nblocks %d", indexed, c.nblocks)
	}
	if ndirtyFiles != len(c.dirtyFiles) {
		return fmt.Errorf("fscache: dirty-file set holds %d entries, recount %d", len(c.dirtyFiles), ndirtyFiles)
	}
	if ndirty != c.ndirty {
		return fmt.Errorf("fscache: ndirty %d, recount %d", c.ndirty, ndirty)
	}
	if dirtyBytes != c.dirtyBytes {
		return fmt.Errorf("fscache: dirtyBytes %d, recount %d", c.dirtyBytes, dirtyBytes)
	}
	// Every slot handed out is in the LRU list or on the free list: a slot
	// is never lost, and never in both places.
	nfree := 0
	for s := c.freeN; s >= 0; s = c.nd(s).next {
		if nfree++; nfree > len(c.nodes) {
			return fmt.Errorf("fscache: free list holds more than the %d slots handed out", len(c.nodes))
		}
	}
	if nfree+lruLen != len(c.nodes) {
		return fmt.Errorf("fscache: %d slots handed out, %d in the lru and %d free", len(c.nodes), lruLen, nfree)
	}
	// The victim scan's progress: exactly the scanCount nodes nearest the
	// tail carry the current epoch, all are dirty, scanLast is the deepest.
	if passed != int(c.scanCount) || c.scanCount > cleanScanDepth {
		return fmt.Errorf("fscache: %d nodes marked passed, scan count %d", passed, c.scanCount)
	}
	last := int32(-1)
	for s, n := c.lruBack, int32(0); n < c.scanCount; n++ {
		x := c.nd(s)
		if !x.dirty() || x.passed != c.scanEpoch {
			return fmt.Errorf("fscache: node %d from the tail (dirty %v) breaks the passed run of %d", n, x.dirty(), c.scanCount)
		}
		last, s = s, x.prev
	}
	if last != c.scanLast {
		return fmt.Errorf("fscache: passed run ends at slot %d, scan remembers %d", last, c.scanLast)
	}
	return nil
}
