package sim

// The event queue: a free-list arena of entries under an indexed 4-ary
// min-heap keyed by (at, seq).
//
// Entries live by value in a reusable arena, so once it and the heap slice
// have grown to their high-water marks, scheduling and firing allocate
// nothing. A heap element carries its ordering key beside its arena slot,
// so sift comparisons read the heap slice alone — the four children of a
// node are 96 contiguous bytes — and the 4-ary layout halves the depth a
// binary heap would have. "Indexed" means every queued entry records its
// heap position: Ticker.Stop removes the entry itself in O(log n) and no
// tombstone stays behind. A firing is one remove (of the root) and, for a
// ticker, one push after the callback; every cost is O(log n) in the
// queued population whatever the events' times are.

// entry is one scheduled callback's arena slot. A one-shot event has no
// period and no Ticker.
type entry struct {
	fn     func()
	period Time
	tk     *Ticker
	pos    int32 // heap position while queued, -1 while a ticker fires
	next   int32 // free-list link while the slot is unused
}

// queued is one heap element: an entry's ordering key — virtual time, then
// FIFO among events scheduled for the same time — beside its arena slot.
type queued struct {
	at   Time
	seq  uint64
	slot int32
}

func (a queued) before(b queued) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// queue is the scheduler state.
type queue struct {
	pool []entry
	free int32    // head of the free-slot list, -1 when empty
	heap []queued // 4-ary min-heap on (at, seq)
}

// alloc takes a slot from the free list (or grows the arena) and fills it.
func (q *queue) alloc(fn func(), period Time, tk *Ticker) int32 {
	i := q.free
	if i >= 0 {
		q.free = q.pool[i].next
	} else {
		q.pool = append(q.pool, entry{})
		i = int32(len(q.pool) - 1)
	}
	q.pool[i] = entry{fn: fn, period: period, tk: tk, pos: -1}
	return i
}

// release returns a slot to the free list, dropping the callback and
// ticker references so the arena does not pin dead closures.
func (q *queue) release(i int32) {
	q.pool[i] = entry{next: q.free}
	q.free = i
}

// freeLen counts free-listed slots (the spritefs_sim_event_pool_free gauge
// reads it).
func (q *queue) freeLen() int {
	n := 0
	for i := q.free; i >= 0; i = q.pool[i].next {
		n++
	}
	return n
}

// place puts a at heap position p and records the position.
func (q *queue) place(p int, a queued) {
	q.heap[p] = a
	q.pool[a.slot].pos = int32(p)
}

// push queues slot i to fire at (at, seq).
func (q *queue) push(i int32, at Time, seq uint64) {
	q.heap = append(q.heap, queued{})
	q.up(len(q.heap)-1, queued{at, seq, i})
}

// remove takes slot i out of the heap: the root when it fires, any entry
// on Stop. The arena slot stays allocated (the caller pushes it again or
// releases it).
func (q *queue) remove(i int32) {
	p := int(q.pool[i].pos)
	q.pool[i].pos = -1
	last := len(q.heap) - 1
	moved := q.heap[last]
	q.heap = q.heap[:last]
	if p == last {
		return
	}
	// The last element takes the hole; it may belong below it or, when the
	// hole was not on its root path, above.
	if p > 0 && moved.before(q.heap[(p-1)>>2]) {
		q.up(p, moved)
	} else {
		q.down(p, moved)
	}
}

// up settles a at or above the hole at position c.
func (q *queue) up(c int, a queued) {
	for c > 0 {
		p := (c - 1) >> 2
		if !a.before(q.heap[p]) {
			break
		}
		q.place(c, q.heap[p])
		c = p
	}
	q.place(c, a)
}

// down settles a at or below the hole at position p.
func (q *queue) down(p int, a queued) {
	n := len(q.heap)
	for {
		first := p<<2 + 1
		if first >= n {
			break
		}
		// Find the smallest of up to four children.
		m := first
		for c, end := first+1, min(first+4, n); c < end; c++ {
			if q.heap[c].before(q.heap[m]) {
				m = c
			}
		}
		if !q.heap[m].before(a) {
			break
		}
		q.place(p, q.heap[m])
		p = m
	}
	q.place(p, a)
}
