package sim

// Recurring-timer storage and ordering for the tickers created by Every:
// a free-list arena of timer entries plus an indexed 4-ary min-heap of the
// armed ones, keyed by (at, seq) like the one-shot queue in heap.go.
//
// "Indexed" is the difference from that queue: every armed entry records
// its heap position, so Ticker.Stop removes the entry itself in O(log n)
// and no tombstone stays behind. A firing is one remove (of the root) and,
// after the callback, one push; the minimum is heap[0]. Every cost is
// O(log n) in the armed population whatever the timers' periods and phases
// are — a shard's 1 250 system processes, several to an instant, fire for
// much the same price each as 40 do.
//
// One-shot events keep their own queue: At/After need no cancellation, so
// they pay for no position tracking.

// timer is one recurring timer's arena entry.
type timer struct {
	period Time
	fn     func()
	tk     *Ticker
	pos    int32 // heap position while armed, -1 while firing
	next   int32 // free-list link while the slot is unused
}

// armed is one heap element: an armed timer's ordering key beside its
// arena slot, so sift comparisons read the heap slice alone — the four
// children of a node are 96 contiguous bytes.
type armed struct {
	at  Time
	seq uint64
	idx int32
}

func (a armed) before(b armed) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// timerHeap is the recurring-timer scheduler state.
type timerHeap struct {
	pool []timer
	free int32   // head of the free-slot list, -1 when empty
	heap []armed // 4-ary min-heap on (at, seq): the armed timers
}

func newTimerHeap() timerHeap {
	return timerHeap{free: -1}
}

// alloc takes a slot from the free list (or grows the arena) and fills it.
func (h *timerHeap) alloc(period Time, fn func(), tk *Ticker) int32 {
	i := h.free
	if i >= 0 {
		h.free = h.pool[i].next
	} else {
		h.pool = append(h.pool, timer{})
		i = int32(len(h.pool) - 1)
	}
	h.pool[i] = timer{period: period, fn: fn, tk: tk, pos: -1}
	return i
}

// release returns a slot to the free list, dropping the callback and
// ticker references.
func (h *timerHeap) release(i int32) {
	h.pool[i] = timer{next: h.free}
	h.free = i
}

// len is the number of armed timers.
func (h *timerHeap) len() int { return len(h.heap) }

// min returns the earliest armed timer's ordering key and arena slot.
func (h *timerHeap) min() (at Time, seq uint64, idx int32, ok bool) {
	if len(h.heap) == 0 {
		return 0, 0, -1, false
	}
	a := h.heap[0]
	return a.at, a.seq, a.idx, true
}

// place puts a at heap position p and records the position.
func (h *timerHeap) place(p int, a armed) {
	h.heap[p] = a
	h.pool[a.idx].pos = int32(p)
}

// push arms slot i to fire at (at, seq).
func (h *timerHeap) push(i int32, at Time, seq uint64) {
	h.heap = append(h.heap, armed{})
	h.up(len(h.heap)-1, armed{at, seq, i})
}

// remove disarms slot i: the root when it fires, any entry on Stop. The
// arena slot stays allocated (the caller pushes it again or releases it).
func (h *timerHeap) remove(i int32) {
	p := int(h.pool[i].pos)
	h.pool[i].pos = -1
	last := len(h.heap) - 1
	moved := h.heap[last]
	h.heap = h.heap[:last]
	if p == last {
		return
	}
	// The last entry takes the hole; it may belong below it or, when the
	// hole was not on its root path, above.
	if p > 0 && moved.before(h.heap[(p-1)>>2]) {
		h.up(p, moved)
	} else {
		h.down(p, moved)
	}
}

// up settles a at or above the hole at position c.
func (h *timerHeap) up(c int, a armed) {
	for c > 0 {
		p := (c - 1) >> 2
		if !a.before(h.heap[p]) {
			break
		}
		h.place(c, h.heap[p])
		c = p
	}
	h.place(c, a)
}

// down settles a at or below the hole at position p.
func (h *timerHeap) down(p int, a armed) {
	n := len(h.heap)
	for {
		first := p<<2 + 1
		if first >= n {
			break
		}
		// Find the smallest of up to four children.
		m := first
		for c, end := first+1, min(first+4, n); c < end; c++ {
			if h.heap[c].before(h.heap[m]) {
				m = c
			}
		}
		if !h.heap[m].before(a) {
			break
		}
		h.place(p, h.heap[m])
		p = m
	}
	h.place(p, a)
}
