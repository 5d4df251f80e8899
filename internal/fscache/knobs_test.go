package fscache

import (
	"testing"
	"time"
)

func TestWritebackDelayOverride(t *testing.T) {
	c := New(16)
	c.SetWritebackDelay(5 * time.Second)
	if c.WriteDelay() != 5*time.Second {
		t.Fatalf("delay = %v", c.WriteDelay())
	}
	c.Write(1, 0, 4096, 0, Attr{}, 0)
	if wbs := c.Clean(4 * time.Second); len(wbs) != 0 {
		t.Error("cleaned before the shortened delay")
	}
	if wbs := c.Clean(6 * time.Second); len(wbs) != 1 {
		t.Error("did not clean after the shortened delay")
	}
	// Non-positive restores the default.
	c.SetWritebackDelay(0)
	if c.WriteDelay() != WritebackDelay {
		t.Errorf("delay = %v, want default", c.WriteDelay())
	}
}

func TestPrefetchFillsFollowingBlocks(t *testing.T) {
	c := New(64)
	c.SetPrefetch(3)
	const fileSize = 10 * BlockSize
	res := c.Read(1, 0, 100, fileSize, Attr{}, 0)
	// One demanded block plus three prefetched.
	if res.MissBlocks != 4 {
		t.Fatalf("miss blocks = %d, want 4", res.MissBlocks)
	}
	if res.MissBytes != 4*BlockSize {
		t.Errorf("miss bytes = %d", res.MissBytes)
	}
	for b := int64(0); b < 4; b++ {
		if !c.Contains(1, b) {
			t.Errorf("block %d not resident after prefetch", b)
		}
	}
	// Reading the prefetched range now hits entirely.
	res = c.Read(1, BlockSize, 3*BlockSize, fileSize, Attr{}, time.Second)
	if res.MissBytes != 0 {
		t.Errorf("prefetched read missed %d bytes", res.MissBytes)
	}
	// Only the demanded block counted as a read op; prefetches do not
	// inflate the op statistics.
	st := c.Stats()
	if st.All.ReadMisses != 1 {
		t.Errorf("read misses = %d, want 1", st.All.ReadMisses)
	}
}

func TestPrefetchStopsAtEOFAndResidentBlocks(t *testing.T) {
	c := New(64)
	c.SetPrefetch(8)
	// Two-block file: at most one prefetch possible.
	res := c.Read(1, 0, 100, 2*BlockSize, Attr{}, 0)
	if res.MissBlocks != 2 {
		t.Errorf("miss blocks = %d, want 2 (EOF bound)", res.MissBlocks)
	}
	// Partial tail block prefetches only the valid bytes.
	c2 := New(64)
	c2.SetPrefetch(2)
	res = c2.Read(2, 0, 100, BlockSize+500, Attr{}, 0)
	if res.MissBytes != BlockSize+500 {
		t.Errorf("miss bytes = %d, want %d", res.MissBytes, BlockSize+500)
	}
	// A resident next block stops the prefetch scan.
	c3 := New(64)
	c3.Read(3, BlockSize, 10, 4*BlockSize, Attr{}, 0) // block 1 resident
	c3.SetPrefetch(4)
	res = c3.Read(3, 0, 10, 4*BlockSize, Attr{}, time.Second)
	if res.MissBlocks != 1 {
		t.Errorf("prefetch ran past a resident block: %d misses", res.MissBlocks)
	}
	// Negative prefetch is clamped off.
	c3.SetPrefetch(-5)
	res = c3.Read(3, 2*BlockSize, 10, 4*BlockSize, Attr{}, 2*time.Second)
	if res.MissBlocks != 1 {
		t.Errorf("negative prefetch fetched extra: %d", res.MissBlocks)
	}
}

func TestPrefetchEvictsUnderPressure(t *testing.T) {
	c := New(4)
	c.SetPrefetch(8)
	res := c.Read(1, 0, 100, 100*BlockSize, Attr{}, 0)
	if c.NumBlocks() > c.Capacity() {
		t.Fatalf("over capacity: %d > %d", c.NumBlocks(), c.Capacity())
	}
	_ = res
}

func TestCleanScanPrefersCleanVictims(t *testing.T) {
	c := New(4)
	// Fill with: dirty (LRU tail), then three clean blocks.
	c.Write(1, 0, BlockSize, 0, Attr{}, 0)
	for f := uint64(2); f <= 4; f++ {
		c.Read(f, 0, BlockSize, BlockSize, Attr{}, time.Duration(f)*time.Second)
	}
	// Next insert evicts: the dirty tail must be skipped in favour of the
	// oldest clean block (file 2).
	res := c.Read(5, 0, BlockSize, BlockSize, Attr{}, 10*time.Second)
	if len(res.Evicted) != 0 {
		t.Errorf("dirty block evicted despite clean candidates: %+v", res.Evicted)
	}
	if !c.Contains(1, 0) {
		t.Error("dirty block was the victim")
	}
	if c.Contains(2, 0) {
		t.Error("oldest clean block survived")
	}
}

func TestReadRefreshesPartiallyValidBlock(t *testing.T) {
	// A block resident with only a valid prefix (from a short write) must
	// fetch its tail when a read wants more of it.
	c := New(16)
	c.Write(1, 0, 1000, 0, Attr{}, 0) // block 0 valid to 1000
	c.Flush(1, CleanFsync, 0)         // clean it
	// The file has grown to 3000 bytes at the server meanwhile.
	res := c.Read(1, 0, 3000, 3000, Attr{}, sec(1))
	if res.MissBytes != 2000 {
		t.Errorf("tail fetch = %d bytes, want 2000", res.MissBytes)
	}
	// Now fully valid: no more fetches.
	res = c.Read(1, 0, 3000, 3000, Attr{}, sec(2))
	if res.MissBytes != 0 {
		t.Errorf("refetch after refresh: %d", res.MissBytes)
	}
}

func TestTruncateToSameSizeKeepsData(t *testing.T) {
	c := New(16)
	c.Write(1, 0, 2*BlockSize, 0, Attr{}, 0)
	saved := c.Truncate(1, 2*BlockSize)
	if saved != 0 {
		t.Errorf("no-op truncate saved %d", saved)
	}
	if c.NumBlocks() != 2 {
		t.Errorf("blocks = %d", c.NumBlocks())
	}
}

func TestStatsSnapshotsSizeAndDirty(t *testing.T) {
	c := New(16)
	c.Write(1, 0, 1000, 0, Attr{}, 0)
	st := c.Stats()
	if st.SizeBytes != BlockSize || st.DirtyBytes != 1000 {
		t.Errorf("snapshot size=%d dirty=%d", st.SizeBytes, st.DirtyBytes)
	}
}

func TestWriteNegativeOffsetPanics(t *testing.T) {
	c := New(16)
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	c.Write(1, -1, 10, 0, Attr{}, 0)
}
