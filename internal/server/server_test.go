package server

import (
	"testing"
	"time"
	"unsafe"
)

func TestCreateAssignsUniqueIDsAcrossServers(t *testing.T) {
	s0, s1 := New(0), New(1)
	a := s0.Create(false, 0)
	b := s0.Create(false, 0)
	c := s1.Create(false, 0)
	if a.ID == b.ID || a.ID == c.ID || b.ID == c.ID {
		t.Error("duplicate file ids")
	}
	if s0.NumFiles() != 2 || s1.NumFiles() != 1 {
		t.Error("file counts wrong")
	}
	if s0.Lookup(a.ID) != a || s0.Lookup(999) != nil {
		t.Error("lookup wrong")
	}
}

func TestFileIDLayout(t *testing.T) {
	for _, tc := range []struct {
		srv int16
		seq uint64
		id  uint64
	}{
		{0, 1, 1},
		{3, 0xabcdef, 3<<48 | 0xabcdef},
		{1, 1<<48 + 5, 1<<48 | 5}, // the sequence wraps inside its 48 bits
		{-1, 7, 0xffff<<48 | 7},
	} {
		id := FileID(tc.srv, tc.seq)
		if id != tc.id || HomeOf(id) != tc.srv || SeqOf(id) != tc.seq&(1<<48-1) {
			t.Errorf("FileID(%d, %#x) = %#x (home %d, seq %#x), want %#x", tc.srv, tc.seq, id, HomeOf(id), SeqOf(id), tc.id)
		}
	}
	if got := New(2).Create(false, 0).ID; got != FileID(2, 1) {
		t.Errorf("server 2's first file is %#x, want %#x", got, FileID(2, 1))
	}
}

func TestNegativeServerIDPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	New(-1)
}

func TestOpenUnknownFile(t *testing.T) {
	s := New(0)
	if _, err := s.Open(42, 1, false, 0); err == nil {
		t.Error("open of unknown file succeeded")
	}
}

func TestSingleClientOpenCloseNoConsistencyActions(t *testing.T) {
	s := New(0)
	f := s.Create(false, 0)
	r, err := s.Open(f.ID, 1, true, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Cacheable || r.RecallFrom != NoClient || r.StartedCWS {
		t.Errorf("reply = %+v", r)
	}
	if err := s.Close(f.ID, 1, true, true, time.Second); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.FileOpens != 1 || st.Recalls != 0 || st.CWSEvents != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestRecallOnOpenAfterOtherClientWrote(t *testing.T) {
	s := New(0)
	f := s.Create(false, 0)
	s.Open(f.ID, 1, true, 0)
	s.Close(f.ID, 1, true, true, time.Second) // client 1 may hold dirty data

	r, _ := s.Open(f.ID, 2, false, 2*time.Second)
	if r.RecallFrom != 1 {
		t.Errorf("RecallFrom = %d, want 1", r.RecallFrom)
	}
	if s.Stats().Recalls != 1 {
		t.Errorf("recalls = %d", s.Stats().Recalls)
	}
	// The same client re-opening its own dirty file: no recall.
	s.Close(f.ID, 2, false, false, 3*time.Second)
	s.Open(f.ID, 1, true, 4*time.Second)
	s.Close(f.ID, 1, true, true, 5*time.Second)
	r, _ = s.Open(f.ID, 1, false, 6*time.Second)
	if r.RecallFrom != NoClient {
		t.Errorf("self-open recalled: %+v", r)
	}
}

func TestRecallIsUpperBound(t *testing.T) {
	// Even if the client's daemon already flushed, the server still
	// recalls — it does not track flush completion (paper's caveat).
	s := New(0)
	f := s.Create(false, 0)
	s.Open(f.ID, 1, true, 0)
	s.Close(f.ID, 1, true, true, time.Second)
	s.WriteBack(f.ID, 1, 0, 4096, 2*time.Second) // daemon flushes
	r, _ := s.Open(f.ID, 2, false, 40*time.Second)
	if r.RecallFrom != 1 {
		t.Error("recall skipped after writeback; server should not track flushes")
	}
}

func TestConcurrentWriteSharingDisablesCaching(t *testing.T) {
	s := New(0)
	f := s.Create(false, 0)
	r1, _ := s.Open(f.ID, 1, false, 0)
	if !r1.Cacheable {
		t.Fatal("single reader not cacheable")
	}
	// Client 2 opens for write: CWS begins.
	r2, _ := s.Open(f.ID, 2, true, time.Second)
	if r2.Cacheable {
		t.Error("writer cacheable during CWS")
	}
	if !r2.StartedCWS {
		t.Error("StartedCWS not set")
	}
	if len(r2.DisableOn) != 1 || r2.DisableOn[0] != 1 {
		t.Errorf("DisableOn = %v, want [1]", r2.DisableOn)
	}
	if s.Stats().CWSEvents != 1 {
		t.Errorf("CWS events = %d", s.Stats().CWSEvents)
	}
	// A third client's open is uncacheable but NOT a new CWS event.
	r3, _ := s.Open(f.ID, 3, false, 2*time.Second)
	if r3.Cacheable || r3.StartedCWS {
		t.Errorf("third open: %+v", r3)
	}
	if s.Stats().CWSEvents != 1 {
		t.Error("CWS double counted")
	}

	// Sprite: uncacheable until closed by ALL clients.
	s.Close(f.ID, 2, true, false, 3*time.Second)
	s.Close(f.ID, 3, false, false, 4*time.Second)
	if !f.Uncacheable() {
		t.Error("file became cacheable while still open (Sprite keeps it off)")
	}
	s.Close(f.ID, 1, false, false, 5*time.Second)
	if f.Uncacheable() {
		t.Error("file still uncacheable after all closes")
	}
	// Fresh open is cacheable again.
	r, _ := s.Open(f.ID, 4, false, 6*time.Second)
	if !r.Cacheable {
		t.Error("file not cacheable after sharing ended")
	}
}

func TestTwoWritersSameClientNoCWS(t *testing.T) {
	// Two opens on the SAME machine do not constitute concurrent
	// write-sharing (the paper's definition requires several workstations).
	s := New(0)
	f := s.Create(false, 0)
	s.Open(f.ID, 1, true, 0)
	r, _ := s.Open(f.ID, 1, false, time.Second)
	if r.StartedCWS || !r.Cacheable {
		t.Errorf("same-machine sharing triggered CWS: %+v", r)
	}
}

func TestCloseWithoutOpenFails(t *testing.T) {
	s := New(0)
	f := s.Create(false, 0)
	if err := s.Close(f.ID, 1, false, false, 0); err == nil {
		t.Error("close without open succeeded")
	}
	// Close of a deleted file is tolerated.
	g := s.Create(false, 0)
	s.Open(g.ID, 1, false, 0)
	s.Delete(g.ID, time.Second)
	if err := s.Close(g.ID, 1, false, false, 2*time.Second); err != nil {
		t.Errorf("close after delete failed: %v", err)
	}
}

func TestDirectoriesNeverCacheable(t *testing.T) {
	s := New(0)
	d := s.Create(true, 0)
	r, _ := s.Open(d.ID, 1, false, 0)
	if r.Cacheable {
		t.Error("directory cacheable on client")
	}
	st := s.Stats()
	if st.DirOpens != 1 || st.FileOpens != 0 {
		t.Errorf("dir open miscounted: %+v", st)
	}
}

func TestWriteGrowsAndBumpsVersion(t *testing.T) {
	s := New(0)
	f := s.Create(false, 0)
	v0 := f.Version
	s.Write(f.ID, 1, 0, 5000, true, time.Second)
	if f.Size != 5000 {
		t.Errorf("size = %d", f.Size)
	}
	if f.Version == v0 {
		t.Error("version not bumped")
	}
	if s.Stats().CacheOffOps != 1 {
		t.Errorf("pass-through ops = %d", s.Stats().CacheOffOps)
	}
	// Overwrite inside the file does not shrink it.
	s.Write(f.ID, 1, 0, 100, false, 2*time.Second)
	if f.Size != 5000 {
		t.Errorf("size shrank to %d", f.Size)
	}
	s.Grow(f.ID, 8000, 3*time.Second)
	if f.Size != 8000 {
		t.Errorf("Grow: size = %d", f.Size)
	}
	s.Grow(f.ID, 100, 4*time.Second) // never shrinks
	if f.Size != 8000 {
		t.Errorf("Grow shrank file to %d", f.Size)
	}
}

func TestDeleteAndTruncate(t *testing.T) {
	s := New(0)
	f := s.Create(false, time.Second)
	s.Write(f.ID, 1, 0, 1000, true, 2*time.Second)
	got := s.Delete(f.ID, 10*time.Second)
	if got == nil || got.ID != f.ID {
		t.Fatal("delete returned wrong file")
	}
	if s.Lookup(f.ID) != nil {
		t.Error("file still present after delete")
	}
	if s.Delete(f.ID, 11*time.Second) != nil {
		t.Error("double delete returned a file")
	}

	g := s.Create(false, 0)
	s.Write(g.ID, 1, 0, 500, true, time.Second)
	tr := s.Truncate(g.ID, 5*time.Second)
	if tr == nil || tr.Size != 0 {
		t.Errorf("truncate: %+v", tr)
	}
	if tr.OldestByte != 5*time.Second {
		t.Errorf("OldestByte = %v", tr.OldestByte)
	}
	st := s.Stats()
	if st.Deletes != 1 || st.Truncates != 1 {
		t.Errorf("stats = %+v", st)
	}
	if s.Truncate(999, 0) != nil {
		t.Error("truncate of unknown file returned a file")
	}
}

func TestOpenersCountsDistinctClients(t *testing.T) {
	s := New(0)
	f := s.Create(false, 0)
	s.Open(f.ID, 1, false, 0)
	s.Open(f.ID, 1, true, 0) // same client, both modes: one opener
	s.Open(f.ID, 2, true, 0)
	if got := f.Openers(); got != 2 {
		t.Errorf("Openers = %d, want 2", got)
	}
	if got := f.WriterCount(); got != 2 {
		t.Errorf("WriterCount = %d, want 2", got)
	}
}

func TestRecallBumpsVersionSoReaderInvalidates(t *testing.T) {
	s := New(0)
	f := s.Create(false, 0)
	s.Open(f.ID, 1, true, 0)
	s.Close(f.ID, 1, true, true, time.Second)
	v := f.Version
	r, _ := s.Open(f.ID, 2, false, 2*time.Second)
	if r.Version <= v {
		t.Error("recalled open did not observe a newer version")
	}
}

// A server holds one File per file it has ever been asked about — 1.7 M of
// them under 50 000 clients — and 80 bytes is an allocator size class where
// 88 rounds up to 96.
func TestFileSizeUnchanged(t *testing.T) {
	if got := unsafe.Sizeof(File{}); got != 80 {
		t.Fatalf("File is %d bytes, want 80", got)
	}
}
