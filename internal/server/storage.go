package server

import (
	"time"

	"spritefs/internal/fscache"
)

// Storage is a file server's memory cache and disk. The measured cluster's
// main server was a Sun 4 with 128 MB whose cache "automatically adjusts
// ... to fill nearly all of memory"; writebacks arriving from clients sit
// in the server cache and go to disk "an additional 30 seconds later".
// The paper's Table 7 notes that this cache further reduces the read
// traffic the server's *disk* sees — Storage is the instrumentation for
// that claim, plus the disk-latency model behind the Section 5.3
// local-disk comparison (a 1991 server disk access costs 20-30 ms).
type Storage struct {
	cache *fscache.Cache

	// DiskAccess is the modeled access time of the server's disk.
	DiskAccess time.Duration

	st StorageStats
}

// StorageStats counts server cache and disk activity.
type StorageStats struct {
	ReadBlocks     int64 // client block fetches served
	ReadMissBlocks int64 // ... that had to touch the disk
	WriteBlocks    int64 // writeback blocks accepted into the cache
	DiskReads      int64
	DiskWrites     int64
	DiskBusy       time.Duration

	// Crash losses: server-cache bytes that were dirty (not yet synced to
	// disk) when the server crashed, and the oldest such byte's age.
	LostDirtyBytes  int64
	MaxLostDirtyAge time.Duration
}

// NewStorage returns a server store with the given cache capacity in
// blocks (the paper's main server: ~128 MB ≈ 32768 blocks).
func NewStorage(capacityBlocks int) *Storage {
	return &Storage{
		cache:      fscache.New(capacityBlocks),
		DiskAccess: 25 * time.Millisecond, // 20-30 ms in 1991
	}
}

// Stats returns a snapshot of the counters.
func (s *Storage) Stats() StorageStats { return s.st }

// CacheBlocks returns the number of resident server-cache blocks.
func (s *Storage) CacheBlocks() int { return s.cache.NumBlocks() }

// ServeRun serves a run of client block fetches from one file: a block the
// server cache holds is free, a miss costs one disk read, and a dirty block
// forced out to make room costs one disk write. Blocks past the end of the
// file are counted as fetches and cost nothing. It returns the disk time
// incurred.
//
// One server-cache Read covers the run, and it does exactly what one Read
// per block did: the cache walks the blocks in the same order at the same
// instant, a block's share of the request is the whole block but for the
// file's last, and a block misses — one of MissBlocks — exactly when its
// own Read would have fetched bytes.
func (s *Storage) ServeRun(file uint64, run fscache.Run, fileSize int64, now time.Duration) time.Duration {
	s.st.ReadBlocks += run.N
	off := run.First * fscache.BlockSize
	n := min(run.N*fscache.BlockSize, fileSize-off)
	if n <= 0 {
		return 0
	}
	res := s.cache.Read(file, off, n, fileSize, fscache.Attr{}, now)
	misses := int64(res.MissBlocks)
	s.st.ReadMissBlocks += misses
	s.st.DiskReads += misses
	read := time.Duration(misses) * s.DiskAccess
	s.st.DiskBusy += read
	return read + s.toDisk(res.Evicted)
}

// AcceptWrite takes a run of writeback blocks into the server cache, bytes
// in all: every block but the last whole, the last from its start. The
// blocks become dirty and go to disk when Clean runs after the server's
// own 30-second delay, or sooner if they have to make room first.
//
// One server-cache Write covers the run, and it does exactly what one
// Write per block did: no block is write-fetched (the write starts at the
// run's first byte, which is where the file's known bytes end), and the
// cache walks the blocks in the same order at the same instant.
func (s *Storage) AcceptWrite(file uint64, run fscache.Run, bytes int64, now time.Duration) {
	if bytes <= 0 {
		return
	}
	s.st.WriteBlocks += run.N
	off := run.First * fscache.BlockSize
	s.toDisk(s.cache.Write(file, off, bytes, off, fscache.Attr{}, now).Evicted)
}

// toDisk counts each block of the server-cache writebacks — blocks the
// cleaner retired, or dirty blocks forced out to make room — as one disk
// write, and returns the disk time they took.
func (s *Storage) toDisk(wbs []fscache.Writeback) time.Duration {
	var blocks int64
	for _, wb := range wbs {
		blocks += int64(wb.N)
	}
	d := time.Duration(blocks) * s.DiskAccess
	s.st.DiskWrites += blocks
	s.st.DiskBusy += d
	return d
}

// Clean flushes server-cache blocks dirty past the 30-second server delay
// to disk and returns the disk time spent.
func (s *Storage) Clean(now time.Duration) time.Duration {
	return s.toDisk(s.cache.Clean(now))
}

// Drop discards a deleted file's blocks from the server cache (dirty data
// for a deleted file never reaches the disk — the server-side half of the
// delayed-write savings).
func (s *Storage) Drop(file uint64) {
	s.cache.Delete(file)
}

// Crash discards the server cache — it is volatile memory — and records
// what was lost. Blocks already synced to disk cost only refetches; dirty
// blocks are gone for good, bounded by the server's own 30-second delay.
func (s *Storage) Crash(now time.Duration) fscache.CrashLoss {
	loss := s.cache.DiscardAll(now)
	s.st.LostDirtyBytes += loss.DirtyBytes
	if loss.MaxDirtyAge > s.st.MaxLostDirtyAge {
		s.st.MaxLostDirtyAge = loss.MaxDirtyAge
	}
	return loss
}

// CheckInvariants audits the server cache's internal accounting.
func (s *Storage) CheckInvariants() error {
	return s.cache.CheckInvariants()
}
