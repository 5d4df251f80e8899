package fscache

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

var noAttr = Attr{}

func sec(n int) time.Duration { return time.Duration(n) * time.Second }

func TestNewPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	New(0)
}

func TestReadMissThenHit(t *testing.T) {
	c := New(100)
	// 8 KB file: two blocks.
	res := c.Read(1, 0, 8192, 8192, noAttr, sec(0))
	if res.MissBytes != 8192 || res.MissBlocks != 2 {
		t.Errorf("first read: %+v", res)
	}
	res = c.Read(1, 0, 8192, 8192, noAttr, sec(1))
	if res.MissBytes != 0 || res.MissBlocks != 0 {
		t.Errorf("second read not a hit: %+v", res)
	}
	st := c.Stats()
	if st.All.ReadOps != 4 || st.All.ReadMisses != 2 {
		t.Errorf("ops=%d misses=%d, want 4/2", st.All.ReadOps, st.All.ReadMisses)
	}
	if st.All.BytesRead != 16384 {
		t.Errorf("BytesRead = %d", st.All.BytesRead)
	}
}

// A read's misses come back as maximal runs, and a cold read sizes the
// file's dense index once, to its last block, never past fiDenseMax.
func TestReadMissRunsAndColdIndex(t *testing.T) {
	c := New(1000)
	const size = 100 * BlockSize
	res := c.Read(1, 0, size, size, noAttr, 0)
	if len(res.MissRuns) != 1 || res.MissRuns[0] != (Run{First: 0, N: 100}) {
		t.Errorf("cold read of 100 blocks missed %+v, want one run of 100", res.MissRuns)
	}
	if fi := c.files[1]; len(fi.dense) != 100 || cap(fi.dense) >= 200 {
		t.Errorf("cold read left a dense index of len %d cap %d, want one sized to 100", len(fi.dense), cap(fi.dense))
	}
	for _, b := range []int64{0, 1, 5} {
		c.Read(2, b*BlockSize, BlockSize, 8*BlockSize, noAttr, 0)
	}
	res = c.Read(2, 0, 8*BlockSize, 8*BlockSize, noAttr, 0)
	if want := []Run{{2, 3}, {6, 2}}; len(res.MissRuns) != 2 || res.MissRuns[0] != want[0] || res.MissRuns[1] != want[1] {
		t.Errorf("read around blocks 0, 1 and 5 missed %+v, want %+v", res.MissRuns, want)
	}
	// A cold read reaching past the dense range reserves up to it only.
	c.Read(3, (fiDenseMax-2)*BlockSize, 4*BlockSize, (fiDenseMax+2)*BlockSize, noAttr, 0)
	if fi := c.files[3]; len(fi.dense) != fiDenseMax || len(fi.sparse) != 2 || fi.n != 4 {
		t.Errorf("read across the dense limit: dense len %d, %d sparse, %d blocks", len(fi.dense), len(fi.sparse), fi.n)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReadSmallFileFetchesOnlyFileBytes(t *testing.T) {
	// A 1 KB file occupies one block but only 1 KB travels on a miss —
	// the reason Table 6's miss *traffic* can be below the miss *ratio*.
	c := New(10)
	res := c.Read(1, 0, 1024, 1024, noAttr, 0)
	if res.MissBytes != 1024 {
		t.Errorf("MissBytes = %d, want 1024", res.MissBytes)
	}
}

func TestReadBeyondSizePanics(t *testing.T) {
	c := New(10)
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	c.Read(1, 0, 2048, 1024, noAttr, 0)
}

func TestReadZeroLength(t *testing.T) {
	c := New(10)
	if res := c.Read(1, 0, 0, 100, noAttr, 0); res.MissBytes != 0 {
		t.Errorf("zero-length read fetched %d", res.MissBytes)
	}
}

func TestWriteMakesDirtyAndCleanAfterDelay(t *testing.T) {
	c := New(10)
	c.Write(1, 0, 4096, 0, noAttr, sec(0))
	if c.DirtyBytes() != 4096 {
		t.Errorf("DirtyBytes = %d", c.DirtyBytes())
	}
	// Cleaner before 30 s: nothing.
	if wbs := c.Clean(sec(29)); len(wbs) != 0 {
		t.Errorf("early clean returned %d writebacks", len(wbs))
	}
	wbs := c.Clean(sec(31))
	if len(wbs) != 1 {
		t.Fatalf("clean returned %d writebacks", len(wbs))
	}
	wb := wbs[0]
	if wb.Reason != CleanDelay || wb.Bytes != 4096 || wb.File != 1 {
		t.Errorf("writeback = %+v", wb)
	}
	if c.DirtyBytes() != 0 {
		t.Errorf("dirty after clean: %d", c.DirtyBytes())
	}
	// Idempotent: nothing left to clean.
	if wbs := c.Clean(sec(60)); len(wbs) != 0 {
		t.Errorf("second clean returned %d", len(wbs))
	}
}

func TestCleanFlushesWholeFile(t *testing.T) {
	// "All dirty blocks for a file are written to the server if any block
	// in the file has been dirty for 30 seconds."
	c := New(10)
	c.Write(1, 0, 4096, 0, noAttr, sec(0))        // old block
	c.Write(1, 4096, 4096, 4096, noAttr, sec(25)) // young block, same file
	c.Write(2, 0, 4096, 0, noAttr, sec(25))       // young block, other file
	wbs := c.Clean(sec(31))
	if len(wbs) != 2 {
		t.Fatalf("clean returned %d writebacks, want 2 (whole file 1)", len(wbs))
	}
	for _, wb := range wbs {
		if wb.File != 1 {
			t.Errorf("cleaned block of file %d", wb.File)
		}
	}
}

func TestWriteFetchOnPartialNonResident(t *testing.T) {
	c := New(10)
	// File of 4096 bytes exists on the server; overwrite bytes 100-200
	// without the block resident -> write fetch.
	res := c.Write(1, 100, 100, 4096, noAttr, 0)
	if res.FetchBlocks != 1 || res.FetchBytes != 4096 {
		t.Errorf("write fetch: %+v", res)
	}
	if got := c.Stats().All.WriteFetches; got != 1 {
		t.Errorf("WriteFetches = %d", got)
	}
	// A second partial write to the now-resident block: no fetch.
	res = c.Write(1, 200, 100, 4096, noAttr, 0)
	if res.FetchBlocks != 0 {
		t.Errorf("resident partial write fetched: %+v", res)
	}
}

func TestNoWriteFetchForAppendOrFullBlock(t *testing.T) {
	c := New(10)
	// Append at the end of a block-aligned file: no existing data in the
	// new block, no fetch.
	res := c.Write(1, 4096, 100, 4096, noAttr, 0)
	if res.FetchBlocks != 0 {
		t.Errorf("append caused write fetch: %+v", res)
	}
	// Full-block overwrite: no fetch either.
	res = c.Write(2, 0, 4096, 4096, noAttr, 0)
	if res.FetchBlocks != 0 {
		t.Errorf("full-block overwrite caused write fetch: %+v", res)
	}
}

func TestAppendWritebackIncludesBlockPrefix(t *testing.T) {
	// "While the application may append only a few bytes to the file, the
	// data written back includes the portion from the beginning of the
	// cache block to the end of the appended data."
	c := New(10)
	c.Write(1, 0, 100, 0, noAttr, sec(0))
	c.Write(1, 100, 50, 100, noAttr, sec(1))
	wbs := c.Clean(sec(40))
	if len(wbs) != 1 {
		t.Fatalf("writebacks = %d", len(wbs))
	}
	if wbs[0].Bytes != 150 {
		t.Errorf("writeback bytes = %d, want 150", wbs[0].Bytes)
	}
	// 150 new bytes written, 150 written back: ratio 100%.
	st := c.Stats()
	if st.BytesWrittenBack != 150 || st.All.BytesWritten != 150 {
		t.Errorf("written=%d back=%d", st.All.BytesWritten, st.BytesWrittenBack)
	}
}

func TestDeleteSavesDirtyBytes(t *testing.T) {
	c := New(10)
	c.Write(1, 0, 1000, 0, noAttr, sec(0))
	saved := c.Delete(1)
	if saved != 1000 {
		t.Errorf("saved = %d", saved)
	}
	st := c.Stats()
	if st.BytesSavedByDelete != 1000 {
		t.Errorf("BytesSavedByDelete = %d", st.BytesSavedByDelete)
	}
	if st.BytesWrittenBack != 0 {
		t.Errorf("deleted bytes were written back")
	}
	if c.NumBlocks() != 0 {
		t.Errorf("blocks remain after delete")
	}
	if wbs := c.Clean(sec(60)); len(wbs) != 0 {
		t.Errorf("clean after delete returned %d", len(wbs))
	}
}

func TestTruncate(t *testing.T) {
	c := New(10)
	// Write three blocks dirty.
	c.Write(1, 0, 3*BlockSize, 0, noAttr, sec(0))
	saved := c.Truncate(1, BlockSize+100)
	// Block 2 fully dropped (4096 dirty), block 1 trimmed to 100 (3996 saved).
	if want := int64(BlockSize + BlockSize - 100); saved != want {
		t.Errorf("saved = %d, want %d", saved, want)
	}
	if c.NumBlocks() != 2 {
		t.Errorf("blocks = %d, want 2", c.NumBlocks())
	}
	if c.DirtyBytes() != BlockSize+100 {
		t.Errorf("dirty = %d", c.DirtyBytes())
	}
	// Truncate to zero drops everything.
	c.Truncate(1, 0)
	if c.NumBlocks() != 0 {
		t.Errorf("blocks after truncate-to-zero = %d", c.NumBlocks())
	}
}

func TestFsyncAndRecall(t *testing.T) {
	c := New(10)
	c.Write(1, 0, 4096, 0, noAttr, sec(0))
	wbs := c.Fsync(1, sec(1))
	if len(wbs) != 1 || wbs[0].Reason != CleanFsync {
		t.Errorf("fsync: %+v", wbs)
	}
	c.Write(2, 0, 4096, 0, noAttr, sec(2))
	wbs = c.Recall(2, sec(3))
	if len(wbs) != 1 || wbs[0].Reason != CleanRecall {
		t.Errorf("recall: %+v", wbs)
	}
	if wbs[0].Age != sec(1) {
		t.Errorf("recall age = %v, want 1s", wbs[0].Age)
	}
	st := c.Stats()
	if st.Cleaned[CleanFsync] != 1 || st.Cleaned[CleanRecall] != 1 {
		t.Errorf("cleaned counters: %+v", st.Cleaned)
	}
	// Fsync of a clean file is a no-op.
	if wbs := c.Fsync(1, sec(5)); len(wbs) != 0 {
		t.Errorf("fsync of clean file: %v", wbs)
	}
}

func TestInvalidate(t *testing.T) {
	c := New(10)
	c.Read(1, 0, 4096, 4096, noAttr, 0)
	if !c.Contains(1, 0) {
		t.Fatal("block not resident")
	}
	c.Invalidate(1)
	if c.Contains(1, 0) || c.NumBlocks() != 0 {
		t.Error("invalidate left blocks")
	}
}

func TestLRUEvictionOrderAndReplacementCounters(t *testing.T) {
	c := New(2)
	c.Read(1, 0, 4096, 4096, noAttr, sec(0))
	c.Read(2, 0, 4096, 4096, noAttr, sec(1))
	c.Read(1, 0, 4096, 4096, noAttr, sec(2)) // touch file 1
	// Inserting a third block evicts file 2's block (LRU).
	c.Read(3, 0, 4096, 4096, noAttr, sec(3))
	if c.Contains(2, 0) {
		t.Error("LRU block not evicted")
	}
	if !c.Contains(1, 0) {
		t.Error("recently used block evicted")
	}
	st := c.Stats()
	if st.ReplacedFile != 1 || st.ReplacedVM != 0 {
		t.Errorf("replacement counters: file=%d vm=%d", st.ReplacedFile, st.ReplacedVM)
	}
	// Replacement age: last ref at 1 s, evicted at 3 s => 2 s.
	if got := st.ReplacementAge.Mean(); got != float64(sec(2)) {
		t.Errorf("replacement age = %v", time.Duration(got))
	}
}

func TestDirtyEvictionProducesWriteback(t *testing.T) {
	c := New(1)
	c.Write(1, 0, 4096, 0, noAttr, sec(0))
	res := c.Read(2, 0, 4096, 4096, noAttr, sec(1))
	if len(res.Evicted) != 1 {
		t.Fatalf("dirty eviction writebacks = %d", len(res.Evicted))
	}
	if res.Evicted[0].Reason != CleanEvict {
		t.Errorf("reason = %v", res.Evicted[0].Reason)
	}
}

func TestTakeForVMAndGrowBy(t *testing.T) {
	c := New(4)
	for f := uint64(1); f <= 4; f++ {
		c.Read(f, 0, 4096, 4096, noAttr, sec(int(f)))
	}
	if wbs := c.SetCapacity(2, true, sec(10)); len(wbs) != 0 {
		t.Errorf("clean victims produced %d writebacks", len(wbs))
	}
	if c.Capacity() != 2 || c.NumBlocks() != 2 {
		t.Errorf("capacity after take = %d", c.Capacity())
	}
	st := c.Stats()
	if st.ReplacedVM != 2 {
		t.Errorf("ReplacedVM = %d", st.ReplacedVM)
	}
	c.GrowBy(3)
	if c.Capacity() != 5 {
		t.Errorf("capacity after grow = %d", c.Capacity())
	}
	c.GrowBy(-1)
	if c.Capacity() != 5 {
		t.Errorf("GrowBy(-1) changed capacity")
	}
}

func TestTakeForVMDirty(t *testing.T) {
	c := New(2)
	c.Write(1, 0, 4096, 0, noAttr, sec(0))
	c.Write(2, 0, 4096, 0, noAttr, sec(1))
	wbs := c.SetCapacity(1, true, sec(5))
	if c.NumBlocks() != 1 || len(wbs) != 1 || wbs[0].Reason != CleanVM {
		t.Errorf("blocks=%d wbs=%+v", c.NumBlocks(), wbs)
	}
	st := c.Stats()
	if st.Cleaned[CleanVM] != 1 {
		t.Errorf("CleanVM count = %d", st.Cleaned[CleanVM])
	}
}

func TestTakeForVMNeverBelowOneCapacity(t *testing.T) {
	c := New(2)
	c.Read(1, 0, 4096, 4096, noAttr, 0)
	c.Read(2, 0, 4096, 4096, noAttr, 0)
	c.SetCapacity(-8, true, sec(1))
	if c.Capacity() != 1 || c.NumBlocks() != 1 {
		t.Errorf("capacity=%d blocks=%d, want 1/1", c.Capacity(), c.NumBlocks())
	}
}

func TestSetCapacityEvicts(t *testing.T) {
	c := New(4)
	for f := uint64(1); f <= 4; f++ {
		c.Read(f, 0, 4096, 4096, noAttr, sec(int(f)))
	}
	c.SetCapacity(2, true, sec(10))
	if c.NumBlocks() != 2 {
		t.Errorf("blocks = %d", c.NumBlocks())
	}
	if st := c.Stats(); st.ReplacedVM != 2 {
		t.Errorf("ReplacedVM = %d", st.ReplacedVM)
	}
	c.SetCapacity(0, false, sec(11)) // clamped to 1
	if c.Capacity() != 1 {
		t.Errorf("capacity = %d", c.Capacity())
	}
}

func TestMigratedAndPagingAttribution(t *testing.T) {
	c := New(10)
	c.Read(1, 0, 4096, 4096, Attr{Migrated: true}, 0)
	c.Read(2, 0, 4096, 4096, Attr{Paging: true}, 0)
	c.Read(3, 0, 4096, 4096, Attr{Paging: true, Migrated: true}, 0)
	st := c.Stats()
	if st.All.ReadOps != 3 || st.All.ReadMisses != 3 {
		t.Errorf("all: %+v", st.All)
	}
	if st.Migrated.ReadOps != 2 || st.Migrated.ReadMisses != 2 {
		t.Errorf("migrated: %+v", st.Migrated)
	}
	if st.All.PagingReadOps != 2 || st.Migrated.PagingReadOps != 1 {
		t.Errorf("paging: all=%d mig=%d", st.All.PagingReadOps, st.Migrated.PagingReadOps)
	}
}

func TestOverwriteDoesNotDoubleCountDirty(t *testing.T) {
	c := New(10)
	c.Write(1, 0, 1000, 0, noAttr, sec(0))
	c.Write(1, 0, 1000, 1000, noAttr, sec(1))
	if c.DirtyBytes() != 1000 {
		t.Errorf("DirtyBytes = %d, want 1000", c.DirtyBytes())
	}
	// The 30-second clock runs from the FIRST dirtying write.
	wbs := c.Clean(sec(31))
	if len(wbs) != 1 {
		t.Errorf("block not cleaned at 31s despite first write at 0s")
	}
}

// Property: cache never exceeds capacity, and dirty bytes are always
// non-negative and bounded by resident bytes, across random op sequences.
func TestCacheInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New(rng.Intn(8) + 2)
		sizes := map[uint64]int64{}
		now := time.Duration(0)
		for i := 0; i < 300; i++ {
			now += time.Duration(rng.Intn(3000)) * time.Millisecond
			file := uint64(rng.Intn(5) + 1)
			switch rng.Intn(6) {
			case 0, 1: // read
				if sizes[file] > 0 {
					off := rng.Int63n(sizes[file])
					l := rng.Int63n(sizes[file]-off) + 1
					c.Read(file, off, l, sizes[file], noAttr, now)
				}
			case 2, 3: // write (append or overwrite)
				off := int64(0)
				if sizes[file] > 0 {
					off = rng.Int63n(sizes[file] + 1)
				}
				l := int64(rng.Intn(3*BlockSize) + 1)
				c.Write(file, off, l, sizes[file], noAttr, now)
				if off+l > sizes[file] {
					sizes[file] = off + l
				}
			case 4: // clean
				c.Clean(now)
			case 5: // delete
				c.Delete(file)
				sizes[file] = 0
			}
			if c.NumBlocks() > c.Capacity() {
				return false
			}
			if c.DirtyBytes() < 0 || c.DirtyBytes() > c.SizeBytes() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: bytes written == bytes written back + bytes saved + bytes
// still dirty, when writes never overlap (each write goes to a fresh file
// region via append).
func TestWriteByteConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New(1 << 20) // effectively unbounded: no evictions
		sizes := map[uint64]int64{}
		now := time.Duration(0)
		for i := 0; i < 200; i++ {
			now += time.Duration(rng.Intn(5000)) * time.Millisecond
			file := uint64(rng.Intn(4) + 1)
			switch rng.Intn(4) {
			case 0, 1, 2: // append exactly one block to keep regions disjoint
				c.Write(file, sizes[file], BlockSize, sizes[file], noAttr, now)
				sizes[file] += BlockSize
			case 3:
				c.Delete(file)
				sizes[file] = 0
			}
			c.Clean(now)
		}
		st := c.Stats()
		return st.All.BytesWritten == st.BytesWrittenBack+st.BytesSavedByDelete+c.DirtyBytes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestCleanReasonString(t *testing.T) {
	if CleanDelay.String() != "delay" || CleanVM.String() != "vm" {
		t.Error("reason names wrong")
	}
	if CleanReason(99).String() != "reason(99)" {
		t.Error("unknown reason name wrong")
	}
}

func TestCrossBlockWrite(t *testing.T) {
	c := New(10)
	// Write spanning three blocks starting mid-block on an existing file.
	res := c.Write(1, 2048, 2*BlockSize, 3*BlockSize, noAttr, 0)
	// Leading and trailing blocks are partial overwrites of existing,
	// non-resident data => both need write fetches; the full middle block
	// does not.
	if res.FetchBlocks != 2 {
		t.Errorf("FetchBlocks = %d, want 2 (leading and trailing partial blocks)", res.FetchBlocks)
	}
	if c.NumBlocks() != 3 {
		t.Errorf("blocks = %d, want 3", c.NumBlocks())
	}
}
