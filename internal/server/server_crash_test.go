package server

import (
	"errors"
	"testing"
	"time"

	"spritefs/internal/fscache"
)

func TestCrashDiscardsVolatileState(t *testing.T) {
	s := New(0)
	s.AttachStorage(64)
	f := s.Create(false, 0)
	g := s.Create(false, 0)

	// Two clients share f (write-sharing), one holds g.
	if _, err := s.Open(f.ID, 1, true, time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Open(f.ID, 2, false, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Open(g.ID, 1, true, 3*time.Second); err != nil {
		t.Fatal(err)
	}
	s.Close(g.ID, 1, true, true, 4*time.Second) // g gains a last writer
	if !f.Uncacheable() {
		t.Fatal("f not under write-sharing before crash")
	}
	// Un-synced dirty data in the server cache.
	s.Store.AcceptWrite(f.ID, fscache.Run{First: 0, N: 1}, 1000, 10*time.Second)

	out := s.Crash(30 * time.Second)
	if out.OpensDropped != 2 {
		t.Errorf("OpensDropped = %d, want 2", out.OpensDropped)
	}
	if out.DirtyBytesLost != 1000 {
		t.Errorf("DirtyBytesLost = %d, want 1000", out.DirtyBytesLost)
	}
	if out.MaxDirtyAge != 20*time.Second {
		t.Errorf("MaxDirtyAge = %v, want 20s", out.MaxDirtyAge)
	}
	if f.Openers() != 0 || f.Uncacheable() || f.lastWriter != NoClient {
		t.Errorf("f volatile state survived crash: %d openers, uncacheable=%v", f.Openers(), f.Uncacheable())
	}
	if g.lastWriter != NoClient {
		t.Error("g last-writer hint survived crash")
	}
	if s.Lookup(f.ID) == nil || s.Lookup(g.ID) == nil {
		t.Error("file metadata lost in crash (must survive: it models the disk)")
	}
	if !s.Down() {
		t.Error("server not down after crash")
	}
	st := s.Stats()
	if st.Crashes != 1 || st.OpensLostInCrash != 2 {
		t.Errorf("crash counters = %+v", st)
	}
	if ss := s.Store.Stats(); ss.LostDirtyBytes != 1000 || ss.MaxLostDirtyAge != 20*time.Second {
		t.Errorf("storage loss counters = %+v", ss)
	}
}

func TestDownRejectsAndRestartBumpsEpoch(t *testing.T) {
	s := New(0)
	f := s.Create(false, 0)
	if s.Epoch() != 0 {
		t.Fatalf("fresh epoch = %d", s.Epoch())
	}
	s.Crash(time.Second)
	if _, err := s.Open(f.ID, 1, false, 2*time.Second); !errors.Is(err, ErrDown) {
		t.Errorf("Open while down: err = %v, want ErrDown", err)
	}
	if err := s.Close(f.ID, 1, false, false, 2*time.Second); !errors.Is(err, ErrDown) {
		t.Errorf("Close while down: err = %v, want ErrDown", err)
	}
	if _, err := s.Recover(f.ID, 1, 1, 0, 2*time.Second); !errors.Is(err, ErrDown) {
		t.Errorf("Recover while down: err = %v, want ErrDown", err)
	}
	s.Restart(3 * time.Second)
	if s.Down() || s.Epoch() != 1 {
		t.Errorf("after restart: down=%v epoch=%d", s.Down(), s.Epoch())
	}
	if _, err := s.Open(f.ID, 1, false, 4*time.Second); err != nil {
		t.Errorf("Open after restart: %v", err)
	}
}

func TestRecoverIsIdempotent(t *testing.T) {
	s := New(0)
	f := s.Create(false, 0)
	if _, err := s.Open(f.ID, 1, true, 0); err != nil {
		t.Fatal(err)
	}
	s.Crash(time.Second)
	s.Restart(time.Second)

	// The satellite fix: re-registering must SET counts, not add, so a
	// duplicate (retried) recovery cannot double-count opens.
	for i := 0; i < 2; i++ {
		if _, err := s.Recover(f.ID, 1, 0, 1, 2*time.Second); err != nil {
			t.Fatal(err)
		}
		_, w := f.Registration(1)
		if f.Openers() != 1 || f.WriterCount() != 1 || w != 1 {
			t.Fatalf("after recover #%d: openers=%d writers=%d count=%d",
				i+1, f.Openers(), f.WriterCount(), w)
		}
	}
	if got := s.Stats().RecoveryOpens; got != 2 {
		t.Errorf("RecoveryOpens = %d, want 2", got)
	}
	// A normal close must balance — the registration is exact.
	if err := s.Close(f.ID, 1, true, false, 3*time.Second); err != nil {
		t.Errorf("close after recovery: %v", err)
	}
	if f.Openers() != 0 {
		t.Errorf("openers = %d after close, want 0", f.Openers())
	}
}

func TestRecoverRedetectsWriteSharing(t *testing.T) {
	s := New(0)
	f := s.Create(false, 0)
	if _, err := s.Open(f.ID, 1, true, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Open(f.ID, 2, false, 0); err != nil {
		t.Fatal(err)
	}
	cwsBefore := s.Stats().CWSEvents
	s.Crash(time.Second)
	s.Restart(time.Second)

	r1, err := s.Recover(f.ID, 2, 1, 0, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !r1.Cacheable || r1.StartedCWS {
		t.Errorf("single reader recovery: %+v, want cacheable, no CWS", r1)
	}
	r2, err := s.Recover(f.ID, 1, 0, 1, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Cacheable || !r2.StartedCWS {
		t.Errorf("writer recovery: %+v, want uncacheable + CWS", r2)
	}
	if len(r2.DisableOn) != 1 || r2.DisableOn[0] != 2 {
		t.Errorf("DisableOn = %v, want [2]", r2.DisableOn)
	}
	st := s.Stats()
	if st.RecoveryCWS != 1 {
		t.Errorf("RecoveryCWS = %d, want 1", st.RecoveryCWS)
	}
	if st.CWSEvents != cwsBefore {
		t.Errorf("CWSEvents inflated by recovery: %d -> %d", cwsBefore, st.CWSEvents)
	}
}

func TestDisconnectPurgesClient(t *testing.T) {
	s := New(0)
	f := s.Create(false, 0)
	g := s.Create(false, 0)
	if _, err := s.Open(f.ID, 1, true, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Open(f.ID, 2, false, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Open(g.ID, 1, true, 0); err != nil {
		t.Fatal(err)
	}
	s.Close(g.ID, 1, true, true, time.Second) // client 1 is g's last writer
	if !f.Uncacheable() {
		t.Fatal("f not write-shared")
	}

	dropped := s.Disconnect(1, 2*time.Second)
	if dropped != 1 {
		t.Errorf("dropped = %d, want 1", dropped)
	}
	if f.Openers() != 1 || f.WriterCount() != 0 {
		t.Errorf("f after disconnect: openers=%d writers=%d", f.Openers(), f.WriterCount())
	}
	// Sole remaining opener is a reader — but uncacheable only clears at
	// zero openers (matching Close semantics).
	if !f.Uncacheable() {
		t.Error("uncacheable cleared with an opener remaining")
	}
	if g.lastWriter != NoClient {
		t.Error("disconnected client still g's last writer")
	}
	s.Close(f.ID, 2, false, false, 3*time.Second)
	if f.Uncacheable() {
		t.Error("uncacheable survived last close")
	}
}

func TestWriteBackBytesCountsDeletedFiles(t *testing.T) {
	s := New(0)
	f := s.Create(false, 0)
	s.WriteBack(f.ID, 1, fscache.Run{First: 0, N: 1}, 500, time.Second)
	s.Delete(f.ID, 2*time.Second)
	// The client already counted these bytes as shipped; the server must
	// too, or the conservation invariant breaks on every delete-while-dirty.
	s.WriteBack(f.ID, 1, fscache.Run{First: 1, N: 1}, 300, 3*time.Second)
	if got := s.Stats().WriteBackBytes; got != 800 {
		t.Errorf("WriteBackBytes = %d, want 800", got)
	}
}
