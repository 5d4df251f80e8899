package server

import (
	"slices"
	"testing"
)

// The dense index covers an id only while growing it to do so is cheap: an
// Install far past its end, or homed on another server, goes to the
// fallback map and leaves the index as it was, and a fallback id the index
// later grows over moves into it.
func TestFileTableIndexReach(t *testing.T) {
	s := New(0)
	far, other := FileID(0, 1<<40), FileID(3, 5)
	beyond := FileID(0, indexReach+100)
	s.Install(far, 1, false, 0)
	s.Install(other, 2, false, 0)
	s.Install(beyond, 3, false, 0)
	if len(s.files.index) != 0 || len(s.files.far) != 3 {
		t.Fatalf("three installs out of reach: index len %d, %d fallback ids; want 0 and 3", len(s.files.index), len(s.files.far))
	}
	near := FileID(0, indexReach-1)
	s.Install(near, 4, false, 0)
	if len(s.files.index) != indexReach || len(s.files.far) != 3 {
		t.Fatalf("install inside reach: index len %d, %d fallback ids; want %d and 3", len(s.files.index), len(s.files.far), indexReach)
	}
	next := FileID(0, 2*indexReach-1)
	s.Install(next, 5, false, 0)
	if _, in := s.files.far[beyond]; in || len(s.files.far) != 2 {
		t.Fatalf("index grew to %d over %#x, which stayed in the fallback map", len(s.files.index), beyond)
	}
	want := []uint64{near, beyond, next, far, other}
	for _, id := range want {
		if f := s.Lookup(id); f == nil || f.ID != id || f.Size == 0 {
			t.Errorf("Lookup(%#x) = %+v", id, f)
		}
	}
	slices.Sort(want)
	if got := s.FileIDs(); !slices.Equal(got, want) || s.NumFiles() != len(want) {
		t.Errorf("FileIDs = %#x (%d files), want %#x", got, s.NumFiles(), want)
	}
}

// A deleted id is gone even while its slot waits for reuse, and Create
// takes that slot back: the freed File is the one handed out.
func TestFileTableReusesFreedSlots(t *testing.T) {
	s := New(1)
	a := s.Create(false, 0)
	b := s.Create(false, 0)
	aID := a.ID
	if got := s.Delete(aID, 0); got != a || got.ID != aID {
		t.Fatalf("Delete returned %p, want the file itself %p", got, a)
	}
	if s.Lookup(aID) != nil {
		t.Fatal("deleted id still found")
	}
	c := s.Create(true, 0)
	if c != a || c.ID == aID || !c.Directory || s.Lookup(aID) != nil {
		t.Errorf("Create after Delete: %p (id %#x), want the freed File %p under a new id", c, c.ID, a)
	}
	if s.Lookup(b.ID) != b || s.NumFiles() != 2 {
		t.Errorf("the other file moved, or the count is %d", s.NumFiles())
	}
}
