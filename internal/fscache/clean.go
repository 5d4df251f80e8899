package fscache

import (
	"math"
	"slices"
	"time"
)

// WritebackDelay is Sprite's delayed-write interval: dirty data is written
// to the server once it has been dirty for 30 seconds.
const WritebackDelay = 30 * time.Second

// CleanerPeriod is how often the cleaner daemon scans for expired dirty
// data (every 5 seconds in Sprite).
const CleanerPeriod = 5 * time.Second

// SetWritebackDelay overrides the delayed-write interval (for the
// writeback-delay ablation; the paper suggests longer delays as future
// work). Non-positive delays restore the default.
func (c *Cache) SetWritebackDelay(d time.Duration) {
	if d <= 0 {
		d = WritebackDelay
	}
	c.wbDelay = d
}

// WriteDelay returns the effective delayed-write interval.
func (c *Cache) WriteDelay() time.Duration {
	if c.wbDelay > 0 {
		return c.wbDelay
	}
	return WritebackDelay
}

// Clean implements the delayed-write daemon scan: every dirty block whose
// file has at least one block dirty for the writeback delay or longer is
// returned for writeback, matching Sprite's rule that "all dirty blocks
// for a file are written to the server if any block in the file has been
// dirty for 30 seconds". Returned blocks become clean.
//
// A tick costs what it has to look at, which is bounded by age. Nothing
// is touched while the cache's oldest dirty block cannot be due
// (Cache.oldestDirty); otherwise only the dirty-file set is visited, and
// of it only the files whose own bound (fileIndex.oldestDirty) is due get
// their blocks scanned. The bounds only ever excuse work: a due bound is
// never taken as proof, the block scan decides — and, having seen every
// dirty block of a file it does not flush, leaves the file's bound exact.
//
// Due files are swept in ascending id and their blocks in ascending index
// (never map iteration order): the age summaries accumulate floating-point
// samples whose sum depends on ordering, and metric dumps are required to
// be byte-identical across runs.
//
// The returned slice aliases a per-cache scratch buffer: it is valid
// until the next Clean/Fsync/Recall/RecoverFlush on this cache.
func (c *Cache) Clean(now time.Duration) []Writeback {
	out := c.cleanScratch[:0]
	delay := c.WriteDelay()
	if c.ndirty == 0 || now-c.oldestDirty < delay {
		return out
	}
	// oldest becomes the cache's bound: the minimum over the files that
	// stay dirty, taken from their bounds as this sweep leaves them.
	oldest := time.Duration(math.MaxInt64)
	ids := c.dirtyIDScratch[:0]
	for id, fi := range c.dirtyFiles {
		if now-fi.oldestDirty >= delay {
			ids = append(ids, id)
		} else if fi.oldestDirty < oldest {
			oldest = fi.oldestDirty
		}
	}
	slices.Sort(ids)
	idxs := c.cleanIdxScr
	for _, file := range ids {
		fi := c.dirtyFiles[file]
		if fileOldest, due := c.oldestDirtyBlock(fi, now, delay); !due {
			fi.oldestDirty = fileOldest
			if fileOldest < oldest {
				oldest = fileOldest
			}
			continue
		}
		idxs = fi.appendIndices(idxs[:0])
		for _, idx := range idxs {
			s := fi.get(idx)
			if b := c.blk(s); b.dirty() {
				out = append(out, c.cleanBlock(fi, s, b, CleanDelay, now))
			}
		}
	}
	c.oldestDirty = oldest
	c.cleanIdxScr = idxs[:0]
	c.dirtyIDScratch = ids[:0]
	c.cleanScratch = out[:0]
	return out
}

// oldestDirtyBlock scans fi's blocks for one that has been dirty for delay
// at now. It stops at the first (due is true); otherwise it has seen every
// dirty block of the file and oldest is the earliest dirtyAt among them.
func (c *Cache) oldestDirtyBlock(fi *fileIndex, now, delay time.Duration) (oldest time.Duration, due bool) {
	oldest = math.MaxInt64
	for _, v := range fi.dense {
		if v != 0 && c.blk(v-1).dirty() {
			dirtyAt := c.dt(v - 1).dirtyAt
			if now-dirtyAt >= delay {
				return 0, true
			}
			oldest = min(oldest, dirtyAt)
		}
	}
	for _, s := range fi.sparse {
		if c.blk(s).dirty() {
			dirtyAt := c.dt(s).dirtyAt
			if now-dirtyAt >= delay {
				return 0, true
			}
			oldest = min(oldest, dirtyAt)
		}
	}
	return oldest, false
}

// cleanBlock writes back dirty block b (slot s) of fi's file, which stays
// resident, clean.
func (c *Cache) cleanBlock(fi *fileIndex, s int32, b *block, reason CleanReason, now time.Duration) Writeback {
	wb := c.makeWriteback(s, b, reason, now)
	c.ndirty--
	c.dirtyBytes -= int64(b.dirtyHi)
	b.dirtyHi = 0
	c.noteCleaned(fi, b.file)
	c.cleanedInPlace(b)
	return wb
}

// Fsync returns all dirty blocks of file for synchronous writeback
// (the application invoked the fsync kernel call).
func (c *Cache) Fsync(file uint64, now time.Duration) []Writeback {
	return c.flushFile(file, CleanFsync, now)
}

// Recall returns all dirty blocks of file for immediate writeback because
// the server needs the most recent data to supply to another client.
func (c *Cache) Recall(file uint64, now time.Duration) []Writeback {
	return c.flushFile(file, CleanRecall, now)
}

// flushFile cleans every dirty block of file. Like Clean, the returned
// slice aliases the per-cache scratch buffer.
func (c *Cache) flushFile(file uint64, reason CleanReason, now time.Duration) []Writeback {
	fi := c.files[file]
	if fi == nil || fi.dirty == 0 {
		return nil
	}
	out := c.cleanScratch[:0]
	idxs := fi.appendIndices(c.cleanIdxScr[:0])
	for _, idx := range idxs {
		s := fi.get(idx)
		if b := c.blk(s); b.dirty() {
			out = append(out, c.cleanBlock(fi, s, b, reason, now))
		}
	}
	c.cleanIdxScr = idxs[:0]
	c.cleanScratch = out[:0]
	return out
}

// Invalidate drops every resident block of file without writeback; the
// client calls it when an open returns a newer version timestamp than the
// cached copy ("the client uses this to flush any stale data from its
// cache"). It returns the number of blocks dropped; in a correctly
// operating system stale dirty data cannot exist, so dirty bytes are
// simply discarded.
func (c *Cache) Invalidate(file uint64) int {
	fi := c.files[file]
	if fi == nil {
		return 0
	}
	idxs := fi.appendIndices(c.cleanIdxScr[:0])
	for _, idx := range idxs {
		s := fi.get(idx)
		c.remove(s, c.blk(s))
	}
	n := len(idxs)
	c.cleanIdxScr = idxs[:0]
	return n
}

// FileDirty reports whether file has any dirty blocks resident.
func (c *Cache) FileDirty(file uint64) bool {
	fi := c.files[file]
	return fi != nil && fi.dirty > 0
}

// Delete drops every resident block of file; dirty bytes vanish without
// ever reaching the server. This is the delayed-write payoff the paper
// quantifies: "about one-tenth of all new data is overwritten or deleted
// before it can be passed on to the server". The saved byte count is
// returned and accumulated in the stats.
func (c *Cache) Delete(file uint64) int64 {
	fi := c.files[file]
	if fi == nil {
		return 0
	}
	var saved int64
	idxs := fi.appendIndices(c.cleanIdxScr[:0])
	for _, idx := range idxs {
		s := fi.get(idx)
		b := c.blk(s)
		saved += int64(b.dirtyHi)
		c.remove(s, b)
	}
	c.cleanIdxScr = idxs[:0]
	c.st.BytesSavedByDelete += saved
	return saved
}

// Truncate drops blocks at or beyond newSize and trims the boundary block.
// Dirty bytes above the cut are counted as saved, like Delete.
func (c *Cache) Truncate(file uint64, newSize int64) int64 {
	fi := c.files[file]
	if fi == nil {
		return 0
	}
	var saved int64
	cutBlock := newSize / BlockSize
	cutWithin := newSize % BlockSize
	idxs := fi.appendIndices(c.cleanIdxScr[:0])
	for _, idx := range idxs {
		s := fi.get(idx)
		b := c.blk(s)
		switch {
		case idx > cutBlock || (idx == cutBlock && cutWithin == 0):
			saved += int64(b.dirtyHi)
			c.remove(s, b)
		case idx == cutBlock:
			// The cut is inside the block: what it keeps is not empty, and
			// a dirty block stays dirty.
			cut := int16(cutWithin)
			if b.validHi > cut {
				b.validHi = cut
			}
			if b.dirtyHi > cut {
				saved += int64(b.dirtyHi - cut)
				c.dirtyBytes -= int64(b.dirtyHi - cut)
				b.dirtyHi = cut
			}
		}
	}
	c.cleanIdxScr = idxs[:0]
	c.st.BytesSavedByDelete += saved
	return saved
}

// GrowBy raises the cache capacity by n blocks (pages granted by the VM
// system).
func (c *Cache) GrowBy(n int) {
	if n > 0 {
		c.capacity += n
	}
}

// SetCapacity sets an absolute capacity, evicting LRU victims as needed.
// With vmTake the virtual memory system is claiming the pages: replacement
// is attributed to VM (Table 8's "virtual memory page" row) and dirty
// victims are cleaned for reason CleanVM. The capacity stays shrunk until
// GrowBy restores it. It returns any dirty writebacks.
func (c *Cache) SetCapacity(blocks int, vmTake bool, now time.Duration) []Writeback {
	if blocks < 1 {
		blocks = 1
	}
	c.capacity = blocks
	var out []Writeback
	for c.nblocks > c.capacity {
		wb, dirty := c.evictOne(now, vmTake)
		if dirty {
			out = append(out, wb)
		}
	}
	return out
}
