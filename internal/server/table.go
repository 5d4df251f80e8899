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
//
// An index entry is in one of three states:
//
//   - 0: no file has the id.
//   - slot+1: a woken file, whose File lives in that slot.
//   - negative: a dormant file of size ^entry. A dormant file is part of the
//     populated name space a run starts from (Server.BootstrapFile): created
//     at time 0, version 0, no openers, no last writer, cacheable. The entry
//     is all of its state; it has no File and takes no slot. The first lookup
//     wakes it: it takes a slot and gets the File that Create(false, 0)
//     followed by Grow(id, size, 0) would have made, and stays woken.
//
// A fallback id is always woken. Crash and Disconnect skip dormant entries,
// which hold no volatile state; NumFiles counts them.

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
	index  []int32 // by sequence number: slot+1, ^size if dormant, 0 if absent
	far    map[uint64]int32
	n      int // live files, dormant ones included
}

func (t *fileTable) at(s int32) *File {
	return &t.chunks[s>>fileChunkShift][s&(fileChunk-1)]
}

// indexed reports whether the index covers id, and at which position.
func (t *fileTable) indexed(id uint64) (uint64, bool) {
	seq := SeqOf(id)
	return seq, HomeOf(id) == t.home && seq < uint64(len(t.index))
}

// lookup returns the file with the given id, waking it if dormant, or nil.
func (t *fileTable) lookup(id uint64) *File {
	if seq, ok := t.indexed(id); ok {
		if v := t.index[seq]; v > 0 {
			return t.at(v - 1)
		}
	}
	return t.lookupSlow(id)
}

// lookupSlow is every case of lookup but a woken file in the index: a
// dormant entry, which it wakes, an absent one, and an id the index does not
// cover. lookup itself is over the inliner's budget, so Lookup calls it; the
// split keeps the common case to an index load and a slot address.
func (t *fileTable) lookupSlow(id uint64) *File {
	seq, ok := t.indexed(id)
	if !ok {
		if s, ok := t.far[id]; ok {
			return t.at(s)
		}
		return nil
	}
	if t.index[seq] == 0 {
		return nil
	}
	return t.wake(id, seq)
}

// present reports whether a file has the given id, waking nothing.
func (t *fileTable) present(id uint64) bool {
	if seq, ok := t.indexed(id); ok {
		return t.index[seq] != 0
	}
	_, ok := t.far[id]
	return ok
}

// wake gives the dormant file at index position seq a slot and returns its
// File: the one Create(false, 0) followed by Grow(id, size, 0) makes.
func (t *fileTable) wake(id, seq uint64) *File {
	size := int64(^t.index[seq])
	s := t.takeSlot()
	t.index[seq] = s + 1
	f := t.reset(s, id)
	f.Size = size
	return f
}

// add files a new id, which must be absent, and returns its File reset to
// the zero state with lastWriter cleared and ID set.
func (t *fileTable) add(id uint64) *File {
	s := t.takeSlot()
	if !t.setIndex(id, s+1) {
		if t.far == nil {
			t.far = make(map[uint64]int32)
		}
		t.far[id] = s
	}
	t.n++
	return t.reset(s, id)
}

// addDormant files a new id, which must be absent, as a dormant file of the
// given size, and reports false, filing nothing, when the index cannot
// reach id.
func (t *fileTable) addDormant(id uint64, size int32) bool {
	if !t.setIndex(id, ^size) {
		return false
	}
	t.n++
	return true
}

// setIndex sets id's index entry to v, growing the index to cover id when
// that is cheap, and reports false, changing nothing, when it is not.
func (t *fileTable) setIndex(id uint64, v int32) bool {
	seq, ok := t.indexed(id)
	if !ok {
		if HomeOf(id) != t.home || seq >= uint64(len(t.index))+indexReach {
			return false
		}
		t.growIndex(seq)
	}
	t.index[seq] = v
	return true
}

// reset returns slot s's File reset to the zero state with lastWriter
// cleared and ID set, keeping the openers slice's storage.
func (t *fileTable) reset(s int32, id uint64) *File {
	f := t.at(s)
	*f = File{ID: id, openers: f.openers[:0], lastWriter: NoClient}
	return f
}

// remove unfiles id and returns its File, still intact, or nil if absent.
// A dormant file is woken first, so that there is a File to return.
func (t *fileTable) remove(id uint64) *File {
	var s int32
	if seq, ok := t.indexed(id); ok {
		v := t.index[seq]
		if v == 0 {
			return nil
		}
		if v < 0 {
			t.wake(id, seq)
			v = t.index[seq]
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
	// order-free: each id moves to its own index slot.
	for id, s := range t.far {
		if seq, ok := t.indexed(id); ok {
			t.index[seq] = s + 1
			delete(t.far, id)
		}
	}
}

// each calls fn on every woken file in ascending id order, skipping
// dormant ones. fn must not add, remove or wake files.
func (t *fileTable) each(fn func(*File)) {
	far := make([]uint64, 0, len(t.far))
	// order-free: collected, then sorted.
	for id := range t.far {
		far = append(far, id)
	}
	slices.Sort(far)
	for _, v := range t.index {
		if v <= 0 {
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
