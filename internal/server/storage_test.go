package server

import (
	"math/rand"
	"testing"
	"time"

	"spritefs/internal/fscache"
)

func TestStorageReadHitMiss(t *testing.T) {
	st := NewStorage(128)
	// Cold read: disk.
	d := st.ServeRun(1, fscache.Run{First: 0, N: 1}, 4096, time.Second)
	if d != st.DiskAccess {
		t.Errorf("cold read disk time = %v", d)
	}
	// Warm read: served from the server cache.
	d = st.ServeRun(1, fscache.Run{First: 0, N: 1}, 4096, 2*time.Second)
	if d != 0 {
		t.Errorf("warm read disk time = %v", d)
	}
	s := st.Stats()
	if s.ReadBlocks != 2 || s.ReadMissBlocks != 1 || s.DiskReads != 1 {
		t.Errorf("stats: %+v", s)
	}
}

func TestStorageReadBeyondFileSize(t *testing.T) {
	st := NewStorage(128)
	if d := st.ServeRun(1, fscache.Run{First: 5, N: 1}, 4096, 0); d != 0 {
		t.Errorf("read past EOF cost disk time %v", d)
	}
}

func TestStorageWriteThenCleanReachesDisk(t *testing.T) {
	st := NewStorage(128)
	st.AcceptWrite(1, fscache.Run{First: 0, N: 1}, 4096, 0)
	if busy := st.Clean(10 * time.Second); busy != 0 {
		t.Errorf("clean before the 30s server delay wrote to disk")
	}
	busy := st.Clean(31 * time.Second)
	if busy != st.DiskAccess {
		t.Errorf("clean busy = %v", busy)
	}
	if st.Stats().DiskWrites != 1 {
		t.Errorf("disk writes = %d", st.Stats().DiskWrites)
	}
	// A write that landed in the cache serves subsequent reads.
	if d := st.ServeRun(1, fscache.Run{First: 0, N: 1}, 4096, time.Minute); d != 0 {
		t.Errorf("read of written block went to disk")
	}
}

func TestStorageDropPreventsDiskWrite(t *testing.T) {
	st := NewStorage(128)
	st.AcceptWrite(1, fscache.Run{First: 0, N: 1}, 4096, 0)
	st.Drop(1)
	if busy := st.Clean(time.Minute); busy != 0 {
		t.Errorf("deleted file's dirty block reached the disk")
	}
}

func TestServerStorageIntegration(t *testing.T) {
	s := New(0)
	s.AttachStorage(128)
	f := s.Create(false, 0)
	s.Grow(f.ID, 8192, 0)

	// Writeback populates the server cache.
	s.WriteBack(f.ID, fscache.Run{First: 0, N: 1}, 4096, time.Second)
	if d := s.ServeRuns(f.ID, []fscache.Run{{First: 0, N: 1}}, 2*time.Second); d != 0 {
		t.Errorf("cached block cost disk time %v", d)
	}
	// The other block is cold.
	if d := s.ServeRuns(f.ID, []fscache.Run{{First: 1, N: 1}}, 3*time.Second); d == 0 {
		t.Error("cold block cost no disk time")
	}
	// Span helpers.
	s.AcceptSpan(f.ID, 0, 8192, 4*time.Second)
	if d := s.ServeSpan(f.ID, 0, 8192, 5*time.Second); d != 0 {
		t.Errorf("span after write cost disk time %v", d)
	}
	// Unknown files and detached storage are safe no-ops.
	if d := s.ServeRuns(999, []fscache.Run{{First: 0, N: 1}}, 0); d != 0 {
		t.Error("unknown file cost disk time")
	}
	bare := New(1)
	if d := bare.ServeRuns(f.ID, []fscache.Run{{First: 0, N: 1}}, 0); d != 0 {
		t.Error("storage-less server cost disk time")
	}
	bare.AcceptSpan(f.ID, 0, 100, 0)
	bare.WriteBack(f.ID, fscache.Run{First: 0, N: 1}, 100, 0)
}

// A dirty server-cache block forced out to make room goes to the disk then,
// not at the next Clean: one disk write each, and a fetch that forced one
// out waits for it.
func TestStorageDirtyVictimsReachTheDisk(t *testing.T) {
	st := NewStorage(4)
	for b := int64(0); b < 5; b++ {
		st.AcceptWrite(1, fscache.Run{First: b, N: 1}, fscache.BlockSize, 0)
	}
	if got := st.Stats().DiskWrites; got != 1 {
		t.Errorf("the fifth dirty block forced %d disk writes, want 1", got)
	}
	if d := st.ServeRun(2, fscache.Run{First: 0, N: 1}, fscache.BlockSize, time.Second); d != 2*st.DiskAccess {
		t.Errorf("a cold fetch into a full, dirty cache took %v, want a read and a write (%v)", d, 2*st.DiskAccess)
	}
	want := StorageStats{ReadBlocks: 1, ReadMissBlocks: 1, WriteBlocks: 5, DiskReads: 1, DiskWrites: 2, DiskBusy: 3 * st.DiskAccess}
	if got := st.Stats(); got != want {
		t.Errorf("stats %+v\nwant  %+v", got, want)
	}
}

// serveFetch serves one client fetch the way the client layer does: the
// blocks its cache missed, ascending, in maximal runs.
func serveFetch(st *Storage, file uint64, blocks []int64, size int64, now time.Duration) time.Duration {
	var runs []fscache.Run
	for _, b := range blocks {
		if n := len(runs); n > 0 && runs[n-1].First+runs[n-1].N == b {
			runs[n-1].N++
		} else {
			runs = append(runs, fscache.Run{First: b, N: 1})
		}
	}
	var d time.Duration
	for _, r := range runs {
		d += st.ServeRun(file, r, size, now)
	}
	return d
}

// TestStoragePinnedMix pins the counters and the disk time of a seeded mix
// of fetches, writebacks and cleans on a small server cache to the numbers
// the block-at-a-time server produced, so that serving a fetch's blocks in
// any other grouping is held to exactly the same result. The mix never
// forces a dirty block out, so the pin does not depend on how dirty
// victims are counted.
func TestStoragePinnedMix(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	st := NewStorage(64)
	var sizes [9]int64
	for f := range sizes {
		sizes[f] = 1 + rng.Int63n(40*fscache.BlockSize)
	}
	var now, disk time.Duration
	var blocks []int64
	for op := 0; op < 4000; op++ {
		now += time.Duration(rng.Int63n(2000)) * time.Millisecond
		f := uint64(1 + rng.Intn(8))
		nblocks := (sizes[f] + fscache.BlockSize - 1) / fscache.BlockSize
		switch r := rng.Intn(10); {
		case r < 6:
			// The blocks of a request the client did not hold: a stretch
			// with holes, sometimes running past the end of the file.
			first, n := rng.Int63n(nblocks+2), 1+rng.Int63n(12)
			blocks = blocks[:0]
			for b := first; b < first+n; b++ {
				if rng.Intn(4) != 0 {
					blocks = append(blocks, b)
				}
			}
			disk += serveFetch(st, f, blocks, sizes[f], now)
		case r < 9:
			b, bytes := rng.Int63n(nblocks+1), 1+rng.Int63n(fscache.BlockSize)
			st.AcceptWrite(f, fscache.Run{First: b, N: 1}, bytes, now)
			sizes[f] = max(sizes[f], b*fscache.BlockSize+bytes)
		default:
			disk += st.Clean(now)
		}
	}
	if ev := st.cache.Stats().Cleaned[fscache.CleanEvict]; ev != 0 {
		t.Fatalf("the mix forced %d dirty blocks out of the server cache", ev)
	}
	// Taken at a5efe0d, which served a fetch one ServeRead per block.
	want := StorageStats{ReadBlocks: 11528, ReadMissBlocks: 6485, WriteBlocks: 1222,
		DiskReads: 6485, DiskWrites: 1172, DiskBusy: 191425 * time.Millisecond}
	const wantDisk = 191425 * time.Millisecond
	if got := st.Stats(); got != want || disk != wantDisk {
		t.Errorf("mix read\n  %+v, disk time %v\nwant\n  %+v, disk time %v", got, disk, want, wantDisk)
	}
}

func TestStorageEvictionUnderPressure(t *testing.T) {
	st := NewStorage(4) // tiny server cache
	for b := int64(0); b < 16; b++ {
		st.ServeRun(1, fscache.Run{First: b, N: 1}, 16*4096, time.Duration(b)*time.Second)
	}
	// All cold: every read hit the disk.
	if s := st.Stats(); s.DiskReads != 16 {
		t.Errorf("disk reads = %d", s.DiskReads)
	}
	if st.CacheBlocks() > 4 {
		t.Errorf("server cache over capacity: %d", st.CacheBlocks())
	}
}
