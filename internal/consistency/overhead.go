package consistency

import "time"

// Algorithms compared by the Section 5.6 simulator.
const (
	AlgSprite   = iota // caching disabled for the whole sharing episode
	AlgModified        // cacheable again as soon as concurrent sharing ends
	AlgToken           // read/write tokens with recall (Locus/Echo/DEcorum)
	NumAlgs
)

// AlgNames are the display names for the three schemes.
var AlgNames = [NumAlgs]string{"sprite", "modified-sprite", "token"}

// BlockSize is the cache block size used by the simulated caches.
const BlockSize = 4096

// writebackDelay mirrors Sprite's 30-second delayed-write policy, which
// the paper's simulator included.
const writebackDelay = 30 * time.Second

// Overhead is the Table 12 result: per-algorithm bytes transferred and
// remote procedure calls, normalized by what the applications actually
// requested on write-shared files.
type Overhead struct {
	AppBytes int64 // bytes requested by applications during sharing
	AppOps   int64 // read and write events during sharing
	Bytes    [NumAlgs]int64
	RPCs     [NumAlgs]int64
}

// ByteRatio returns bytes transferred by algorithm a divided by
// application bytes (the paper's second column; 1.0 for Sprite by
// construction).
func (o *Overhead) ByteRatio(a int) float64 {
	if o.AppBytes == 0 {
		return 0
	}
	return float64(o.Bytes[a]) / float64(o.AppBytes)
}

// RPCRatio returns RPCs issued by algorithm a divided by application
// read/write events (the paper's third column).
func (o *Overhead) RPCRatio(a int) float64 {
	if o.AppOps == 0 {
		return 0
	}
	return float64(o.RPCs[a]) / float64(o.AppOps)
}

// blockRange returns the block indices touched by [off, off+n).
func blockRange(off, n int64) (first, last int64) {
	if n <= 0 {
		return 0, -1
	}
	return off / BlockSize, (off + n - 1) / BlockSize
}

// clientCache is the simulator's infinitely large per-(client,file) cache.
type clientCache struct {
	valid   map[int64]bool
	dirtyAt map[int64]time.Duration
}

func newClientCache() *clientCache {
	return &clientCache{valid: make(map[int64]bool), dirtyAt: make(map[int64]time.Duration)}
}

// flush writes all dirty blocks back, charging bytes and one piggy-backed
// RPC per block, and returns how many blocks were flushed.
func (c *clientCache) flush(o *Overhead, alg int) int {
	n := 0
	// order-free: every dirty block is written; the charges are integer sums.
	for b := range c.dirtyAt {
		delete(c.dirtyAt, b)
		o.Bytes[alg] += BlockSize
		o.RPCs[alg]++
		n++
	}
	return n
}

// expire writes back blocks dirty longer than the delayed-write interval.
func (c *clientCache) expire(now time.Duration, o *Overhead, alg int) {
	// order-free: each block is judged alone; the charges are integer sums.
	for b, at := range c.dirtyAt {
		if now-at >= writebackDelay {
			delete(c.dirtyAt, b)
			o.Bytes[alg] += BlockSize
			o.RPCs[alg]++
		}
	}
}

func (c *clientCache) invalidate() {
	c.valid = make(map[int64]bool)
	// Dirty blocks are flushed by the caller before invalidation.
}

// fileSim carries per-file state for the modified-Sprite and token schemes.
type fileSim struct {
	// open bookkeeping (shared by all algorithms).
	readers map[int32]int
	writers map[int32]int

	// modified-Sprite caches, keyed by client.
	mod map[int32]*clientCache

	// token state.
	tok      map[int32]*clientCache
	writeTok int32 // client holding the write token, or -1
	readTok  map[int32]bool
}

func newFileSim() *fileSim {
	return &fileSim{
		readers:  make(map[int32]int),
		writers:  make(map[int32]int),
		mod:      make(map[int32]*clientCache),
		tok:      make(map[int32]*clientCache),
		writeTok: -1,
		readTok:  make(map[int32]bool),
	}
}

func (f *fileSim) openers() int {
	n := len(f.readers)
	// order-free: counts writers not also reading.
	for c := range f.writers {
		if f.readers[c] == 0 {
			n++
		}
	}
	return n
}

// cwsActive reports instantaneous concurrent write-sharing.
func (f *fileSim) cwsActive() bool {
	return f.openers() >= 2 && len(f.writers) >= 1
}

func (f *fileSim) modCache(client int32) *clientCache {
	c := f.mod[client]
	if c == nil {
		c = newClientCache()
		f.mod[client] = c
	}
	return c
}

func (f *fileSim) tokCache(client int32) *clientCache {
	c := f.tok[client]
	if c == nil {
		c = newClientCache()
		f.tok[client] = c
	}
	return c
}

// SimulateOverhead replays the write-shared accesses under the three
// consistency schemes. Only events logged during concurrent write-sharing
// (Shared flag) are accounted — exactly the accesses the paper's
// simulator saw — so the Sprite scheme transfers exactly the application
// bytes and issues exactly one RPC per event, and the other two schemes
// are measured against that same window. Caches are infinitely large and
// blocks leave them only through consistency actions, per the paper.
func SimulateOverhead(st SharedTrace) Overhead {
	var o Overhead
	files := make(map[uint64]*fileSim)
	get := func(id uint64) *fileSim {
		f := files[id]
		if f == nil {
			f = newFileSim()
			files[id] = f
		}
		return f
	}

	for _, ev := range st.Events {
		f := get(ev.File)
		// Expire delayed writes that have come due.
		// order-free: each client's cache expires alone; the charges are integer sums.
		for _, c := range f.mod {
			c.expire(ev.Time, &o, AlgModified)
		}
		// order-free: each client's cache expires alone; the charges are integer sums.
		for _, c := range f.tok {
			c.expire(ev.Time, &o, AlgToken)
		}

		switch ev.Kind {
		case EvOpen:
			if ev.Write {
				f.writers[ev.Client]++
			} else {
				f.readers[ev.Client]++
			}
		case EvClose:
			m := f.readers
			if ev.Write {
				m = f.writers
			}
			if m[ev.Client] > 0 {
				m[ev.Client]--
				if m[ev.Client] == 0 {
					delete(m, ev.Client)
				}
			}
		case EvRead:
			if !ev.Shared {
				continue
			}
			o.AppBytes += ev.Bytes
			o.AppOps++
			// Sprite: pass-through.
			o.Bytes[AlgSprite] += ev.Bytes
			o.RPCs[AlgSprite]++
			simModified(f, &o, ev, false)
			simToken(f, &o, ev, false)
		case EvWrite:
			if !ev.Shared {
				continue
			}
			o.AppBytes += ev.Bytes
			o.AppOps++
			o.Bytes[AlgSprite] += ev.Bytes
			o.RPCs[AlgSprite]++
			simModified(f, &o, ev, true)
			simToken(f, &o, ev, true)
		}
	}
	// Final flush: data dirty at trace end would be written eventually.
	// order-free: every file is flushed; the charges are integer sums.
	for _, f := range files {
		// order-free: every cache is flushed; the charges are integer sums.
		for _, c := range f.mod {
			c.flush(&o, AlgModified)
		}
		// order-free: every cache is flushed; the charges are integer sums.
		for _, c := range f.tok {
			c.flush(&o, AlgToken)
		}
	}
	return o
}

// simModified: like Sprite, but the file is cacheable whenever concurrent
// write-sharing is not *instantaneously* active.
func simModified(f *fileSim, o *Overhead, ev Event, isWrite bool) {
	if f.cwsActive() {
		// Pass-through, and every client's cached copy becomes stale on a
		// write (flush dirty first, then invalidate).
		o.Bytes[AlgModified] += ev.Bytes
		o.RPCs[AlgModified]++
		if isWrite {
			// order-free: every cache is flushed and invalidated; the charges are integer sums.
			for _, c := range f.mod {
				c.flush(o, AlgModified)
				c.invalidate()
			}
		}
		return
	}
	cacheOp(f.modCache(ev.Client), o, AlgModified, ev, isWrite)
	if isWrite {
		// Other clients' copies of the written blocks are now stale.
		first, last := blockRange(ev.Offset, ev.Bytes)
		// order-free: drops the written blocks from every other cache.
		for cl, c := range f.mod {
			if cl == ev.Client {
				continue
			}
			for b := first; b <= last; b++ {
				delete(c.valid, b)
			}
		}
	}
}

// simToken: read/write tokens with piggy-backed recalls.
func simToken(f *fileSim, o *Overhead, ev Event, isWrite bool) {
	cl := ev.Client
	if isWrite {
		if f.writeTok != cl {
			// Acquire the write token: one request RPC; recalls are
			// piggy-backed onto it, but each recalled client costs one
			// callback RPC (carrying its dirty data when any).
			o.RPCs[AlgToken]++
			if f.writeTok >= 0 {
				o.RPCs[AlgToken]++
				f.tokCache(f.writeTok).flush(o, AlgToken)
			}
			// order-free: every token is recalled; the charges are integer sums.
			for r := range f.readTok {
				if r != cl {
					o.RPCs[AlgToken]++
				}
				delete(f.readTok, r)
			}
			// Everyone else's cache is stale once this client writes.
			// order-free: invalidates every other cache.
			for other, c := range f.tok {
				if other != cl {
					c.invalidate()
				}
			}
			f.writeTok = cl
		}
	} else {
		hasToken := f.writeTok == cl || f.readTok[cl]
		if !hasToken {
			o.RPCs[AlgToken]++ // token request
			if f.writeTok >= 0 && f.writeTok != cl {
				// Recall the write token: holder flushes and downgrades.
				o.RPCs[AlgToken]++
				f.tokCache(f.writeTok).flush(o, AlgToken)
				f.readTok[f.writeTok] = true
				f.writeTok = -1
			}
			f.readTok[cl] = true
		}
	}
	cacheOp(f.tokCache(cl), o, AlgToken, ev, isWrite)
}

// cacheOp applies a read or write to a simulated cache, charging block
// fetches for misses and write fetches for partial writes of non-resident
// blocks; writes dirty blocks under the 30-second delayed-write policy.
func cacheOp(c *clientCache, o *Overhead, alg int, ev Event, isWrite bool) {
	first, last := blockRange(ev.Offset, ev.Bytes)
	for b := first; b <= last; b++ {
		if isWrite {
			blockStart := b * BlockSize
			lo := ev.Offset - blockStart
			if lo < 0 {
				lo = 0
			}
			hi := ev.Offset + ev.Bytes - blockStart
			if hi > BlockSize {
				hi = BlockSize
			}
			partial := lo > 0 || hi < BlockSize
			if partial && !c.valid[b] {
				// Write fetch.
				o.Bytes[alg] += BlockSize
				o.RPCs[alg]++
			}
			c.valid[b] = true
			if _, dirty := c.dirtyAt[b]; !dirty {
				c.dirtyAt[b] = ev.Time
			}
		} else {
			if !c.valid[b] {
				o.Bytes[alg] += BlockSize
				o.RPCs[alg]++
				c.valid[b] = true
			}
		}
	}
}
