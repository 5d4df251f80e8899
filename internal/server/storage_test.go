package server

import (
	"testing"
	"time"
)

func TestStorageReadHitMiss(t *testing.T) {
	st := NewStorage(128)
	// Cold read: disk.
	d := st.ServeRead(1, 0, 4096, time.Second)
	if d != st.DiskAccess {
		t.Errorf("cold read disk time = %v", d)
	}
	// Warm read: served from the server cache.
	d = st.ServeRead(1, 0, 4096, 2*time.Second)
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
	if d := st.ServeRead(1, 5, 4096, 0); d != 0 {
		t.Errorf("read past EOF cost disk time %v", d)
	}
}

func TestStorageWriteThenCleanReachesDisk(t *testing.T) {
	st := NewStorage(128)
	st.AcceptWrite(1, 0, 4096, 0)
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
	if d := st.ServeRead(1, 0, 4096, time.Minute); d != 0 {
		t.Errorf("read of written block went to disk")
	}
}

func TestStorageDropPreventsDiskWrite(t *testing.T) {
	st := NewStorage(128)
	st.AcceptWrite(1, 0, 4096, 0)
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
	s.WriteBack(f.ID, 1, 0, 4096, time.Second)
	if d := s.ServeBlock(f.ID, 0, 2*time.Second); d != 0 {
		t.Errorf("cached block cost disk time %v", d)
	}
	// The other block is cold.
	if d := s.ServeBlock(f.ID, 1, 3*time.Second); d == 0 {
		t.Error("cold block cost no disk time")
	}
	// Span helpers.
	s.AcceptSpan(f.ID, 0, 8192, 4*time.Second)
	if d := s.ServeSpan(f.ID, 0, 8192, 5*time.Second); d != 0 {
		t.Errorf("span after write cost disk time %v", d)
	}
	// Unknown files and detached storage are safe no-ops.
	if d := s.ServeBlock(999, 0, 0); d != 0 {
		t.Error("unknown file cost disk time")
	}
	bare := New(1)
	if d := bare.ServeBlock(f.ID, 0, 0); d != 0 {
		t.Error("storage-less server cost disk time")
	}
	bare.AcceptSpan(f.ID, 0, 100, 0)
	bare.WriteBack(f.ID, 1, 0, 100, 0)
}

func TestStorageEvictionUnderPressure(t *testing.T) {
	st := NewStorage(4) // tiny server cache
	for b := int64(0); b < 16; b++ {
		st.ServeRead(1, b, 16*4096, time.Duration(b)*time.Second)
	}
	// All cold: every read hit the disk.
	if s := st.Stats(); s.DiskReads != 16 {
		t.Errorf("disk reads = %d", s.DiskReads)
	}
	if st.CacheBlocks() > 4 {
		t.Errorf("server cache over capacity: %d", st.CacheBlocks())
	}
}
