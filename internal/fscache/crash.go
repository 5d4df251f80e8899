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
		b := c.blk(s)
		loss.Blocks++
		if b.dirty() {
			loss.DirtyBlocks++
			loss.DirtyBytes += int64(b.dirtyHi)
			if age := now - c.dt(s).dirtyAt; age > loss.MaxDirtyAge {
				loss.MaxDirtyAge = age
			}
		}
		s = b.next
	}
	// The chunks stay, of blocks and of write times: every slot is unused
	// again and is rewritten whole when next handed out, and its write
	// times when its tenant first turns dirty.
	c.nslots = 0
	c.freeB = -1
	c.lruFront = -1
	c.lruBack = -1
	c.forgetScan()
	// The file indexes still in the map hold stale slots; drop them. (The
	// fiFree pool holds only emptied, all-zero indexes and stays usable.)
	c.files = make(map[uint64]*fileIndex)
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
// dirty counts and dirty bytes must match a full recount, the LRU list
// must track the block map, every arena slot handed out must be resident
// or free, per-block watermarks must be ordered, no dirty
// block may predate the age bounds the cleaner skips by, and the victim
// scan's remembered progress must describe the LRU tail as it is.
// It returns the first inconsistency found, or nil. The fault harness
// calls it after every injected fault sequence.
func (c *Cache) CheckInvariants() error {
	var nblocks, ndirty, ndirtyFiles int
	var dirtyBytes int64
	for f, fi := range c.files {
		fn, fd := 0, 0
		audit := func(idx int64, s int32) error {
			fn++
			nblocks++
			b := c.blk(s)
			if b.file != f || b.index != idx {
				return fmt.Errorf("fscache: block keyed (%#x,%d) holds (%#x,%d)", f, idx, b.file, b.index)
			}
			if b.validHi < 0 || b.validHi > BlockSize {
				return fmt.Errorf("fscache: block (%#x,%d) validHi %d out of range", f, idx, b.validHi)
			}
			if b.dirtyHi < 0 || b.dirtyHi > b.validHi {
				return fmt.Errorf("fscache: block (%#x,%d) dirtyHi %d exceeds validHi %d", f, idx, b.dirtyHi, b.validHi)
			}
			if b.dirty() {
				ndirty++
				fd++
				dirtyBytes += int64(b.dirtyHi)
				if ci := int(s >> chunkShift); ci >= len(c.dtimes) || c.dtimes[ci] == nil {
					return fmt.Errorf("fscache: dirty block (%#x,%d) at slot %d has no write times", f, idx, s)
				}
				if dirtyAt := c.dt(s).dirtyAt; dirtyAt < fi.oldestDirty || dirtyAt < c.oldestDirty {
					return fmt.Errorf("fscache: block (%#x,%d) dirty since %v, before its file's bound %v or the cache's %v",
						f, idx, dirtyAt, fi.oldestDirty, c.oldestDirty)
				}
			}
			return nil
		}
		for idx, v := range fi.dense {
			if v != 0 {
				if err := audit(int64(idx), v-1); err != nil {
					return err
				}
			}
		}
		for idx, s := range fi.sparse {
			if idx < fiDenseMax {
				return fmt.Errorf("fscache: sparse index holds small block index %d of file %#x", idx, f)
			}
			if err := audit(idx, s); err != nil {
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
	}
	if ndirtyFiles != len(c.dirtyFiles) {
		return fmt.Errorf("fscache: dirty-file set holds %d entries, recount %d", len(c.dirtyFiles), ndirtyFiles)
	}
	if nblocks != c.nblocks {
		return fmt.Errorf("fscache: nblocks %d, recount %d", c.nblocks, nblocks)
	}
	if ndirty != c.ndirty {
		return fmt.Errorf("fscache: ndirty %d, recount %d", c.ndirty, ndirty)
	}
	if dirtyBytes != c.dirtyBytes {
		return fmt.Errorf("fscache: dirtyBytes %d, recount %d", c.dirtyBytes, dirtyBytes)
	}
	// Every slot handed out is resident or on the free list, and the arena
	// holds them all: a slot is never lost, and never in both places.
	nfree := 0
	for s := c.freeB; s >= 0; s = c.blk(s).next {
		if nfree++; nfree > int(c.nslots) {
			return fmt.Errorf("fscache: free list holds more than the %d slots handed out", c.nslots)
		}
	}
	if len(c.dtimes) > len(c.chunks) {
		return fmt.Errorf("fscache: write times for %d chunks of an arena of %d", len(c.dtimes), len(c.chunks))
	}
	if nfree+c.nblocks != int(c.nslots) || int(c.nslots) > len(c.chunks)*chunkBlocks {
		return fmt.Errorf("fscache: %d slots handed out of %d chunks, %d resident and %d free",
			c.nslots, len(c.chunks), c.nblocks, nfree)
	}
	lruLen, passed := 0, 0
	prev := int32(-1)
	for s := c.lruFront; s >= 0; {
		b := c.blk(s)
		if b.prev != prev {
			return fmt.Errorf("fscache: lru back-link broken at slot %d", s)
		}
		if lruLen++; lruLen > c.nblocks {
			return fmt.Errorf("fscache: lru holds more than the %d indexed blocks", c.nblocks)
		}
		if b.passed == c.scanEpoch {
			passed++
		}
		prev, s = s, b.next
	}
	if prev != c.lruBack {
		return fmt.Errorf("fscache: lru tail is %d, walk ended at %d", c.lruBack, prev)
	}
	if lruLen != c.nblocks {
		return fmt.Errorf("fscache: lru holds %d blocks, index holds %d", lruLen, c.nblocks)
	}
	// The victim scan's progress: exactly the scanCount blocks nearest the
	// tail carry the current epoch, all are dirty, scanLast is the deepest.
	if passed != int(c.scanCount) || c.scanCount > cleanScanDepth {
		return fmt.Errorf("fscache: %d blocks marked passed, scan count %d", passed, c.scanCount)
	}
	last := int32(-1)
	for s, n := c.lruBack, int32(0); n < c.scanCount; n++ {
		b := c.blk(s)
		if !b.dirty() || b.passed != c.scanEpoch {
			return fmt.Errorf("fscache: block %d from the tail (dirty %v) breaks the passed run of %d", n, b.dirty(), c.scanCount)
		}
		last, s = s, b.prev
	}
	if last != c.scanLast {
		return fmt.Errorf("fscache: passed run ends at slot %d, scan remembers %d", last, c.scanLast)
	}
	return nil
}
