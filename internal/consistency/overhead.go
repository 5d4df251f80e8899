package consistency

import (
	"time"

	"spritefs/internal/analysis"
)

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
	valid map[int64]bool // made at the first access
	dirty []dirtyBlock   // in the order the blocks became dirty
}

// dirtyBlock is a block written since the cache last wrote it back.
type dirtyBlock struct {
	block int64
	at    time.Duration // when it became dirty
}

// flush writes all dirty blocks back, charging bytes and one piggy-backed
// RPC per block.
func (c *clientCache) flush(o *Overhead, alg int) {
	o.Bytes[alg] += BlockSize * int64(len(c.dirty))
	o.RPCs[alg] += int64(len(c.dirty))
	c.dirty = c.dirty[:0]
}

// expire writes back blocks dirty longer than the delayed-write interval.
func (c *clientCache) expire(now time.Duration, o *Overhead, alg int) {
	kept := c.dirty[:0]
	for _, d := range c.dirty {
		if now-d.at >= writebackDelay {
			o.Bytes[alg] += BlockSize
			o.RPCs[alg]++
		} else {
			kept = append(kept, d)
		}
	}
	c.dirty = kept
}

// isDirty reports whether block b is dirty.
func (c *clientCache) isDirty(b int64) bool {
	for _, d := range c.dirty {
		if d.block == b {
			return true
		}
	}
	return false
}

func (c *clientCache) invalidate() {
	clear(c.valid)
	// Dirty blocks are flushed by the caller before invalidation.
}

// fileSim carries per-file state for the modified-Sprite and token schemes.
type fileSim struct {
	open     analysis.OpenTable // shared by all algorithms
	clients  []simClient        // every client that read or wrote during sharing
	writeTok int                // index in clients of the write-token holder, or -1
}

// simClient is one client's caches of a file and its read token.
type simClient struct {
	id       int32
	mod, tok clientCache // the modified-Sprite and token schemes' caches
	readTok  bool
}

// client returns the index in f.clients of client id, adding it first if
// it is not there.
func (f *fileSim) client(id int32) int {
	for i := range f.clients {
		if f.clients[i].id == id {
			return i
		}
	}
	f.clients = append(f.clients, simClient{id: id})
	return len(f.clients) - 1
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
	var files []fileSim // in the order the trace first touches them
	index := make(map[uint64]int)
	for _, ev := range st.Events {
		i, ok := index[ev.File]
		if !ok {
			i = len(files)
			index[ev.File] = i
			files = append(files, fileSim{writeTok: -1})
		}
		f := &files[i]
		// Expire delayed writes that have come due.
		for j := range f.clients {
			f.clients[j].mod.expire(ev.Time, &o, AlgModified)
			f.clients[j].tok.expire(ev.Time, &o, AlgToken)
		}

		switch ev.Kind {
		case EvOpen:
			f.open.Open(ev.Client, ev.Write)
		case EvClose:
			f.open.Close(ev.Client, ev.Write)
		case EvRead, EvWrite:
			if !ev.Shared {
				continue
			}
			o.AppBytes += ev.Bytes
			o.AppOps++
			// Sprite: pass-through.
			o.Bytes[AlgSprite] += ev.Bytes
			o.RPCs[AlgSprite]++
			c := f.client(ev.Client)
			simModified(f, c, &o, ev)
			simToken(f, c, &o, ev)
		}
	}
	// Final flush: data dirty at trace end would be written eventually.
	for i := range files {
		for j := range files[i].clients {
			files[i].clients[j].mod.flush(&o, AlgModified)
			files[i].clients[j].tok.flush(&o, AlgToken)
		}
	}
	return o
}

// simModified: like Sprite, but the file is cacheable whenever concurrent
// write-sharing is not *instantaneously* active. c is the index of the
// event's client.
func simModified(f *fileSim, c int, o *Overhead, ev Event) {
	isWrite := ev.Kind == EvWrite
	if f.open.WriteShared() {
		// Pass-through, and every client's cached copy becomes stale on a
		// write (flush dirty first, then invalidate).
		o.Bytes[AlgModified] += ev.Bytes
		o.RPCs[AlgModified]++
		if isWrite {
			for j := range f.clients {
				f.clients[j].mod.flush(o, AlgModified)
				f.clients[j].mod.invalidate()
			}
		}
		return
	}
	cacheOp(&f.clients[c].mod, o, AlgModified, ev)
	if isWrite {
		// Other clients' copies of the written blocks are now stale.
		first, last := blockRange(ev.Offset, ev.Bytes)
		for j := range f.clients {
			if j == c {
				continue
			}
			for b := first; b <= last; b++ {
				delete(f.clients[j].mod.valid, b)
			}
		}
	}
}

// simToken: read/write tokens with piggy-backed recalls. c is the index of
// the event's client.
func simToken(f *fileSim, c int, o *Overhead, ev Event) {
	if ev.Kind == EvWrite {
		if f.writeTok != c {
			// Acquire the write token: one request RPC; recalls are
			// piggy-backed onto it, but each recalled client costs one
			// callback RPC (carrying its dirty data when any).
			o.RPCs[AlgToken]++
			if f.writeTok >= 0 {
				o.RPCs[AlgToken]++
				f.clients[f.writeTok].tok.flush(o, AlgToken)
			}
			for j := range f.clients {
				other := &f.clients[j]
				if other.readTok && j != c {
					o.RPCs[AlgToken]++
				}
				other.readTok = false
				// Everyone else's cache is stale once this client writes.
				if j != c {
					other.tok.invalidate()
				}
			}
			f.writeTok = c
		}
	} else if f.writeTok != c && !f.clients[c].readTok {
		o.RPCs[AlgToken]++ // token request
		if f.writeTok >= 0 {
			// Recall the write token: holder flushes and downgrades.
			o.RPCs[AlgToken]++
			f.clients[f.writeTok].tok.flush(o, AlgToken)
			f.clients[f.writeTok].readTok = true
			f.writeTok = -1
		}
		f.clients[c].readTok = true
	}
	cacheOp(&f.clients[c].tok, o, AlgToken, ev)
}

// cacheOp applies a read or write to a simulated cache, charging block
// fetches for misses and write fetches for partial writes of non-resident
// blocks; writes dirty blocks under the 30-second delayed-write policy.
func cacheOp(c *clientCache, o *Overhead, alg int, ev Event) {
	if c.valid == nil {
		c.valid = make(map[int64]bool)
	}
	first, last := blockRange(ev.Offset, ev.Bytes)
	for b := first; b <= last; b++ {
		if ev.Kind == EvWrite {
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
			if !c.isDirty(b) {
				c.dirty = append(c.dirty, dirtyBlock{b, ev.Time})
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
