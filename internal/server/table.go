package server

import "slices"

// The file table: a server's files by value in fixed-size chunks, found
// through a dense index by sequence number. A File never moves once its
// slot is handed out, so Lookup's pointer stays valid while the file lives
// and Delete's until the slot is reused by the next Create or Install.
//
// The index covers the sequence numbers [0, len(index)) of the server's
// own ids. An id it does not cover goes to the fallback map instead: one
// homed on another server (cluster.ServerFor folds the ids of servers a
// cluster lacks onto server 0), or one whose sequence number lies more
// than indexReach past the index's end, where growing the index to reach
// it would cost more than the map. When the index grows, the fallback ids
// it now covers move into it, so an id is always in exactly one place.

// fileChunk is the table's growth unit: slot s lives at
// chunks[s>>fileChunkShift][s&(fileChunk-1)]. A server pays for one chunk,
// 20 KB, at its first file.
const (
	fileChunkShift = 8
	fileChunk      = 1 << fileChunkShift
)

// indexReach is how far past the index's end an id may land and still grow
// the index to cover it.
const indexReach = 1 << 16

type fileTable struct {
	home   int16 // the server whose ids the index covers
	chunks []*[fileChunk]File
	nslots int32   // slots handed out; each holds a live file or is free
	free   []int32 // slots Delete released, reused last-in first-out
	index  []int32 // slot+1 by sequence number, 0 = absent
	far    map[uint64]int32
	n      int // live files
}

func (t *fileTable) at(s int32) *File {
	return &t.chunks[s>>fileChunkShift][s&(fileChunk-1)]
}

// indexed reports whether the index covers id, and at which position.
func (t *fileTable) indexed(id uint64) (uint64, bool) {
	seq := SeqOf(id)
	return seq, HomeOf(id) == t.home && seq < uint64(len(t.index))
}

// lookup returns the file with the given id, or nil.
func (t *fileTable) lookup(id uint64) *File {
	if seq, ok := t.indexed(id); ok {
		if v := t.index[seq]; v != 0 {
			return t.at(v - 1)
		}
		return nil
	}
	return t.lookupFar(id)
}

// lookupFar is lookup's fallback half, apart so that lookup — and Lookup,
// on every client operation — inlines.
func (t *fileTable) lookupFar(id uint64) *File {
	if s, ok := t.far[id]; ok {
		return t.at(s)
	}
	return nil
}

// add files a new id, which must be absent, and returns its File reset to
// the zero state with lastWriter cleared and ID set.
func (t *fileTable) add(id uint64) *File {
	s := t.takeSlot()
	switch seq, ok := t.indexed(id); {
	case ok:
		t.index[seq] = s + 1
	case HomeOf(id) == t.home && seq < uint64(len(t.index))+indexReach:
		t.growIndex(seq)
		t.index[seq] = s + 1
	default:
		if t.far == nil {
			t.far = make(map[uint64]int32)
		}
		t.far[id] = s
	}
	t.n++
	f := t.at(s)
	*f = File{ID: id, openers: f.openers[:0], lastWriter: NoClient}
	return f
}

// remove unfiles id and returns its File, still intact, or nil if absent.
func (t *fileTable) remove(id uint64) *File {
	var s int32
	if seq, ok := t.indexed(id); ok {
		v := t.index[seq]
		if v == 0 {
			return nil
		}
		t.index[seq] = 0
		s = v - 1
	} else {
		var ok bool
		if s, ok = t.far[id]; !ok {
			return nil
		}
		delete(t.far, id)
	}
	t.free = append(t.free, s)
	t.n--
	return t.at(s)
}

// takeSlot pops a released slot, or takes the next unused one, adding a
// chunk when the last is full.
func (t *fileTable) takeSlot() int32 {
	if n := len(t.free); n > 0 {
		s := t.free[n-1]
		t.free = t.free[:n-1]
		return s
	}
	s := t.nslots
	if int(s>>fileChunkShift) == len(t.chunks) {
		t.chunks = append(t.chunks, new([fileChunk]File))
	}
	t.nslots++
	return s
}

// growIndex extends the index to cover sequence number seq, at least
// doubling it, and moves the fallback ids it now covers into it.
func (t *fileTable) growIndex(seq uint64) {
	grown := make([]int32, max(seq+1, 2*uint64(len(t.index)), fileChunk))
	copy(grown, t.index)
	t.index = grown
	for id, s := range t.far {
		if seq, ok := t.indexed(id); ok {
			t.index[seq] = s + 1
			delete(t.far, id)
		}
	}
}

// each calls fn on every live file in ascending id order. fn must not add
// or remove files.
func (t *fileTable) each(fn func(*File)) {
	far := make([]uint64, 0, len(t.far))
	for id := range t.far {
		far = append(far, id)
	}
	slices.Sort(far)
	for _, v := range t.index {
		if v == 0 {
			continue
		}
		f := t.at(v - 1)
		for len(far) > 0 && far[0] < f.ID {
			fn(t.at(t.far[far[0]]))
			far = far[1:]
		}
		fn(f)
	}
	for _, id := range far {
		fn(t.at(t.far[id]))
	}
}
