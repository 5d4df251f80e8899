package fscache

import (
	"cmp"
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
	// order-free: due ids are collected, then sorted; the bound is a minimum.
	for id, fi := range c.dirtyFiles {
		if now-fi.oldestDirty >= delay {
			ids = append(ids, id)
		} else if fi.oldestDirty < oldest {
			oldest = fi.oldestDirty
		}
	}
	slices.Sort(ids)
	for _, file := range ids {
		fi := c.dirtyFiles[file]
		if fileOldest, due := c.oldestDirtyBlock(fi, now, delay); !due {
			fi.oldestDirty = fileOldest
			if fileOldest < oldest {
				oldest = fileOldest
			}
			continue
		}
		out = c.cleanFile(fi, CleanDelay, now, out)
	}
	c.oldestDirty = oldest
	c.dirtyIDScratch = ids[:0]
	c.cleanScratch = out[:0]
	return out
}

// fileNodes returns the slots of fi's nodes in ascending block order, in a
// per-cache scratch buffer valid until the next call. The dense part is
// walked a node at a time, and only until it has yielded every block that
// is not sparse: an index recycled from a larger file keeps its dense part
// at the length it reached. The sparse part holds one-block nodes only,
// all past the dense part, and is sorted here.
func (c *Cache) fileNodes(fi *fileIndex) []int32 {
	buf := c.slotScratch[:0]
	left := int64(fi.n - len(fi.sparse))
	for idx := int64(0); left > 0 && idx < int64(len(fi.dense)); {
		v := fi.dense[idx]
		if v == 0 {
			idx++
			continue
		}
		x := c.nd(v - 1)
		buf = append(buf, v-1)
		left -= int64(x.n)
		idx = x.last() + 1
	}
	if len(fi.sparse) > 0 {
		start := len(buf)
		// order-free: collected, then sorted by block index.
		for _, s := range fi.sparse {
			buf = append(buf, s)
		}
		slices.SortFunc(buf[start:], func(a, b int32) int { return cmp.Compare(c.nd(a).first, c.nd(b).first) })
	}
	c.slotScratch = buf
	return buf
}

// oldestDirtyBlock scans fi's nodes for a block that has been dirty for
// delay at now; a dirty node's blocks all turned dirty together. It stops
// at the first (due is true); otherwise it has seen every dirty block of
// the file and oldest is the earliest dirtyAt among them.
func (c *Cache) oldestDirtyBlock(fi *fileIndex, now, delay time.Duration) (oldest time.Duration, due bool) {
	oldest = math.MaxInt64
	for _, s := range c.fileNodes(fi) {
		if c.nd(s).dirty() {
			dirtyAt := c.dt(s).dirtyAt
			if now-dirtyAt >= delay {
				return 0, true
			}
			oldest = min(oldest, dirtyAt)
		}
	}
	return oldest, false
}

// cleanFile writes back every dirty block of fi's file, in ascending
// index, appending the writebacks to out. The blocks stay resident, clean:
// a dirty node turns clean whole, where it sits, and is already the clean
// node its blocks make — fully valid but the front-most.
func (c *Cache) cleanFile(fi *fileIndex, reason CleanReason, now time.Duration, out []Writeback) []Writeback {
	for _, s := range c.fileNodes(fi) {
		if x := c.nd(s); x.dirty() {
			out = append(out, c.makeWriteback(s, x.n, reason, now))
			c.dirtyBytes -= x.dirtyBytes(x.n)
			x.dirtyHi = 0
			c.noteCleaned(fi, x.file, x.n)
			c.cleanedInPlace(x)
		}
	}
	return out
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
	out := c.cleanFile(fi, reason, now, c.cleanScratch[:0])
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
	n := fi.n
	for _, s := range c.fileNodes(fi) {
		c.dropNode(s)
	}
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
	return c.Truncate(file, 0)
}

// Truncate drops blocks at or beyond newSize and trims the boundary block.
// Dirty bytes above the cut are counted as saved, like Delete. A node the
// cut falls inside loses its blocks from the cut on and keeps the rest
// where it sits.
func (c *Cache) Truncate(file uint64, newSize int64) int64 {
	fi := c.files[file]
	if fi == nil {
		return 0
	}
	var saved int64
	cutBlock := newSize / BlockSize
	cut := int16(newSize % BlockSize)
	keep := (newSize + BlockSize - 1) / BlockSize // blocks below keep stay
	for _, s := range c.fileNodes(fi) {
		x := c.nd(s)
		if x.first >= keep {
			if x.dirty() {
				saved += x.dirtyBytes(x.n)
			}
			c.dropNode(s)
			continue
		}
		if x.last() >= keep {
			// The cut is inside the node: its blocks from keep on go, and
			// the new front-most block was a fully valid one, and fully
			// dirty if the node is.
			gone := int32(x.last() - keep + 1)
			for j := keep; j <= x.last(); j++ {
				fi.del(j)
			}
			fi.n -= int(gone)
			c.nblocks -= int(gone)
			if x.dirty() {
				lost := x.dirtyBytes(x.n) - int64(x.n-gone)*BlockSize
				saved += lost
				c.dirtyBytes -= lost
				c.noteCleaned(fi, x.file, gone)
				x.dirtyHi = BlockSize
			}
			if x.passed == c.scanEpoch {
				c.scanCount -= gone
			}
			x.n -= gone
			x.validHi = BlockSize
		}
		if cut != 0 && x.last() == cutBlock {
			// The cut is inside the node's front-most block: what it keeps
			// is not empty, and a dirty block stays dirty.
			x.validHi = min(x.validHi, cut)
			if x.dirtyHi > cut {
				saved += int64(x.dirtyHi - cut)
				c.dirtyBytes -= int64(x.dirtyHi - cut)
				x.dirtyHi = cut
			}
		}
	}
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
