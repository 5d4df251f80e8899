package server

import (
	"math"
	"reflect"
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
	if got := s.files.ids(); !slices.Equal(got, want) || s.NumFiles() != len(want) {
		t.Errorf("ids = %#x (%d files), want %#x", got, s.NumFiles(), want)
	}
}

// ids lists every live id, dormant ones included, in ascending order.
func (t *fileTable) ids() []uint64 {
	var out []uint64
	for seq, v := range t.index {
		if v != 0 {
			out = append(out, FileID(t.home, uint64(seq)))
		}
	}
	for id := range t.far {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// peek returns what the table holds for id, waking nothing: the File of a
// woken file, or the size of a dormant one.
func (t *fileTable) peek(id uint64) (f *File, size int64, dormant bool) {
	if seq, ok := t.indexed(id); ok {
		switch v := t.index[seq]; {
		case v > 0:
			return t.at(v - 1), 0, false
		case v < 0:
			return nil, int64(^v), true
		}
		return nil, 0, false
	}
	if s, ok := t.far[id]; ok {
		return t.at(s), 0, false
	}
	return nil, 0, false
}

// A bootstrap regular file that fits in 31 bits takes no slot until its
// first lookup. Crash, Disconnect, EachFile and Create leave it dormant,
// and it wakes as the File Create(false, 0) then Grow(id, size, 0) makes.
func TestBootstrapFileDormant(t *testing.T) {
	s := New(0)
	sizes := []int64{0, 1, 4096, math.MaxInt32, -5}
	var ids []uint64
	for _, size := range sizes {
		ids = append(ids, s.BootstrapFile(size, false))
	}
	if s.files.nslots != 0 || len(s.files.chunks) != 0 {
		t.Fatalf("%d dormant files took %d slots in %d chunks, want none", len(ids), s.files.nslots, len(s.files.chunks))
	}
	if st := s.Stats(); st.Creates != int64(len(ids)) || s.NumFiles() != len(ids) {
		t.Fatalf("Creates %d, NumFiles %d, want %d each", st.Creates, s.NumFiles(), len(ids))
	}
	big := s.BootstrapFile(math.MaxInt32+1, false)
	dir := s.BootstrapFile(8192, true)
	if s.files.nslots != 2 {
		t.Fatalf("a file above MaxInt32 and a directory took %d slots, want 2", s.files.nslots)
	}
	for id, size := range map[uint64]int64{big: math.MaxInt32 + 1, dir: 8192} {
		if f, _, _ := s.files.peek(id); f == nil || f.Size != size || f.Directory != (id == dir) {
			t.Errorf("eager bootstrap %#x = %+v, want size %d", id, f, size)
		}
	}

	// Nothing but a lookup wakes a dormant file. Rewinding nextID makes
	// Create's skip loop walk over every dormant id.
	s.Crash(0)
	s.Restart(0)
	s.Disconnect(1, 0)
	var visited []uint64
	s.EachFile(func(f *File) { visited = append(visited, f.ID) })
	s.nextID = ids[0]
	c := s.Create(false, 0)
	if want := []uint64{big, dir}; !slices.Equal(visited, want) {
		t.Errorf("EachFile visited %#x, want only the eager files %#x", visited, want)
	}
	if c.ID <= dir {
		t.Errorf("Create handed out %#x, an id already taken", c.ID)
	}
	for i, id := range ids {
		if _, size, dormant := s.files.peek(id); !dormant || size != max(sizes[i], 0) {
			t.Errorf("%#x: dormant %v size %d, want dormant with size %d", id, dormant, size, max(sizes[i], 0))
		}
	}

	for i, id := range ids {
		ref := New(0)
		want := ref.Create(false, 0)
		ref.Grow(want.ID, sizes[i], 0)
		want.ID = id
		f := s.Lookup(id)
		if !reflect.DeepEqual(f, want) {
			t.Errorf("woke %+v, want %+v", f, want)
		}
		if s.Lookup(id) != f {
			t.Errorf("%#x moved after waking", id)
		}
	}
	if s.files.nslots != 3+int32(len(ids)) {
		t.Errorf("%d slots after waking %d files, want %d", s.files.nslots, len(ids), 3+len(ids))
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
