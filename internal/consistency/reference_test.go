package consistency

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"spritefs/internal/cluster"
	"spritefs/internal/trace"
	"spritefs/internal/workload"
)

// referenceCollectShared is the reference model of SharedCollector: the
// two-pass distillation it replaced, which finds the shared files in a
// first pass over the whole trace and collects their events in a second.
func referenceCollectShared(recs []trace.Record) SharedTrace {
	st := SharedTrace{Users: make(map[int32]bool)}
	type fileUse struct {
		clients map[int32]bool
		written bool
	}
	uses := make(map[uint64]*fileUse)
	for i := range recs {
		r := &recs[i]
		if r.Time > st.Duration {
			st.Duration = r.Time
		}
		st.Users[r.User] = true
		if r.IsDirectory() {
			continue
		}
		switch r.Kind {
		case trace.KindOpen:
			st.TotalOpens++
			if r.IsMigrated() {
				st.MigratedOpens++
			}
		case trace.KindRead, trace.KindWrite, trace.KindClose:
		default:
			continue
		}
		u := uses[r.File]
		if u == nil {
			u = &fileUse{clients: make(map[int32]bool)}
			uses[r.File] = u
		}
		u.clients[r.Client] = true
		if r.Kind == trace.KindWrite || (r.Kind == trace.KindOpen && r.Flags&trace.FlagWriteMode != 0) {
			u.written = true
		}
	}
	shared := make(map[uint64]bool)
	for f, u := range uses {
		if len(u.clients) >= 2 && u.written {
			shared[f] = true
		}
	}
	for i := range recs {
		r := &recs[i]
		if !shared[r.File] || r.IsDirectory() {
			continue
		}
		ev := Event{
			Time:     r.Time,
			Client:   r.Client,
			User:     r.User,
			File:     r.File,
			Handle:   r.Handle,
			Offset:   r.Offset,
			Bytes:    r.Length,
			Migrated: r.IsMigrated(),
			Shared:   r.Flags&trace.FlagShared != 0,
		}
		switch r.Kind {
		case trace.KindOpen:
			ev.Kind = EvOpen
			ev.Write = r.Flags&trace.FlagWriteMode != 0
		case trace.KindClose:
			ev.Kind = EvClose
			ev.Write = r.Flags&trace.FlagWriteMode != 0
		case trace.KindRead:
			ev.Kind = EvRead
		case trace.KindWrite:
			ev.Kind = EvWrite
		default:
			continue
		}
		st.Events = append(st.Events, ev)
	}
	return st
}

// TestSharedCollectorMatchesReference runs the collector and its reference
// model over traces captured from the cluster — every Section 4 trace
// configuration, a short horizon each — over the random access patterns
// the property tests use, and over a file that is shared only because one
// client opened it for writing (the captured traces write every such file).
func TestSharedCollectorMatchesReference(t *testing.T) {
	traces := map[string][]trace.Record{
		"random": randomRecords(7, 3000),
		"opened for writing, never written": {
			rec(1*time.Second, trace.KindOpen, 0, 1, trace.FlagWriteMode, 0, 0, 10),
			rec(2*time.Second, trace.KindClose, 0, 1, trace.FlagWriteMode, 0, 0, 10),
			rec(3*time.Second, trace.KindOpen, 1, 1, trace.FlagReadMode, 0, 0, 11),
			rec(4*time.Second, trace.KindRead, 1, 1, 0, 0, 100, 11),
			rec(5*time.Second, trace.KindClose, 1, 1, trace.FlagReadMode, 0, 0, 11),
		},
	}
	for name, recs := range clusterTraces(t) {
		traces[name] = recs
	}
	for name, recs := range traces {
		got, want := CollectShared(recs), referenceCollectShared(recs)
		if len(want.Events) == 0 {
			t.Errorf("%s: the reference finds no shared events; the case checks nothing", name)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: collector and reference differ: %d/%d events, %d/%d opens, %d/%d users",
				name, len(got.Events), len(want.Events), got.TotalOpens, want.TotalOpens, len(got.Users), len(want.Users))
		}
	}
}

var (
	clusterTracesOnce sync.Once
	clusterTracesRecs map[string][]trace.Record
	clusterTracesErr  error
)

// clusterTraces returns traces captured from the cluster, one per Section 4
// trace configuration at a short horizon, built once per test binary.
func clusterTraces(t *testing.T) map[string][]trace.Record {
	clusterTracesOnce.Do(func() {
		clusterTracesRecs = make(map[string][]trace.Record)
		for n := 1; n <= 8; n++ {
			p := workload.TraceParams(n)
			p.NumClients, p.DailyUsers, p.OccasionalUsers = 12, 9, 9
			cfg := cluster.DefaultConfig(p)
			cfg.SamplePeriod = 0
			cl := cluster.New(cfg)
			cl.Run(time.Hour)
			recs, err := trace.Collect(trace.Merge(cl.PerServerStreams()...))
			if err != nil {
				clusterTracesErr = err
				return
			}
			clusterTracesRecs[fmt.Sprintf("trace %d", n)] = recs
		}
	})
	if clusterTracesErr != nil {
		t.Fatal(clusterTracesErr)
	}
	return clusterTracesRecs
}

// fuzzRecordSize is how many input bytes FuzzSharedCollector decodes into
// one record.
const fuzzRecordSize = 8

// decodeRecords turns fuzz input into a time-ordered trace over a few
// clients and files, so that files are shared often.
func decodeRecords(data []byte) []trace.Record {
	var recs []trace.Record
	var now time.Duration
	for ; len(data) >= fuzzRecordSize; data = data[fuzzRecordSize:] {
		now += time.Duration(data[0]) * time.Millisecond
		recs = append(recs, trace.Record{
			Time:   now,
			Kind:   trace.Kind(data[1] % 12), // invalid kinds included
			Flags:  data[2],
			Client: int32(data[3] % 4),
			User:   int32(data[3] / 4 % 4),
			File:   uint64(data[4] % 5),
			Handle: uint64(data[5]),
			Offset: int64(binary.LittleEndian.Uint16(data[6:])),
			Length: int64(data[5]) * 16,
		})
	}
	return recs
}

// FuzzSharedCollector: on any trace the collector distills exactly what the
// reference model does.
func FuzzSharedCollector(f *testing.F) {
	f.Add([]byte{})
	// Client 0 opens file 1 for writing; client 1 reads it.
	f.Add([]byte{
		1, byte(trace.KindOpen), trace.FlagWriteMode, 0, 1, 1, 0, 0,
		1, byte(trace.KindOpen), trace.FlagReadMode, 1, 1, 2, 0, 0,
		1, byte(trace.KindRead), trace.FlagShared, 1, 1, 2, 9, 0,
		1, byte(trace.KindClose), trace.FlagReadMode, 1, 1, 2, 0, 0,
	})
	// One client alone reads and writes file 2, a directory is shared.
	f.Add([]byte{
		0, byte(trace.KindOpen), trace.FlagWriteMode | trace.FlagReadMode, 2, 2, 3, 0, 0,
		0, byte(trace.KindWrite), 0, 2, 2, 3, 0, 1,
		0, byte(trace.KindRead), 0, 2, 2, 3, 0, 1,
		5, byte(trace.KindOpen), trace.FlagWriteMode | trace.FlagDirectory, 0, 3, 4, 0, 0,
		5, byte(trace.KindOpen), trace.FlagDirectory, 1, 3, 5, 0, 0,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		recs := decodeRecords(data)
		if got, want := CollectShared(recs), referenceCollectShared(recs); !reflect.DeepEqual(got, want) {
			t.Errorf("collector and reference differ:\n got %+v\nwant %+v", got, want)
		}
	})
}

// referenceSimulateOverhead is the reference model of SimulateOverhead: the
// simulator with its per-file and per-client state in maps, verbatim but
// for its names, its order-free notes and the tallies it keeps in
// overheadCoverage, which say
// which of its paths a trace drove.
func referenceSimulateOverhead(st SharedTrace) (Overhead, overheadCoverage) {
	var o Overhead
	var cov overheadCoverage
	files := make(map[uint64]*refFileSim)
	get := func(id uint64) *refFileSim {
		f := files[id]
		if f == nil {
			f = newRefFileSim(&cov)
			files[id] = f
		}
		return f
	}

	for _, ev := range st.Events {
		f := get(ev.File)
		// Expire delayed writes that have come due.
		for _, c := range f.mod {
			c.expire(ev.Time, &o, AlgModified)
		}
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
			refSimModified(f, &o, ev, false)
			refSimToken(f, &o, ev, false)
		case EvWrite:
			if !ev.Shared {
				continue
			}
			o.AppBytes += ev.Bytes
			o.AppOps++
			o.Bytes[AlgSprite] += ev.Bytes
			o.RPCs[AlgSprite]++
			refSimModified(f, &o, ev, true)
			refSimToken(f, &o, ev, true)
		}
	}
	// Final flush: data dirty at trace end would be written eventually.
	for _, f := range files {
		for _, c := range f.mod {
			c.flush(&o, AlgModified)
		}
		for _, c := range f.tok {
			c.flush(&o, AlgToken)
		}
	}
	return o, cov
}

// overheadCoverage counts the paths of referenceSimulateOverhead that a
// trace drove, so a lockstep test can say its inputs reached them.
type overheadCoverage struct {
	writeSteals  int // token: a writer took the write token from another client
	readRecalls  int // token: a writer recalled another client's read token
	cwsWrites    int // modified Sprite: a write during concurrent write-sharing
	cachedWrites int // modified Sprite: a write outside it, into the cache
	expiries     int // a delayed write came due and was written back
	writeFetches int // a partial write fetched a block the cache lacked
}

func (c *overheadCoverage) add(d overheadCoverage) {
	c.writeSteals += d.writeSteals
	c.readRecalls += d.readRecalls
	c.cwsWrites += d.cwsWrites
	c.cachedWrites += d.cachedWrites
	c.expiries += d.expiries
	c.writeFetches += d.writeFetches
}

// refClientCache is the simulator's infinitely large per-(client,file) cache.
type refClientCache struct {
	valid   map[int64]bool
	dirtyAt map[int64]time.Duration
	cov     *overheadCoverage
}

func newRefClientCache(cov *overheadCoverage) *refClientCache {
	return &refClientCache{valid: make(map[int64]bool), dirtyAt: make(map[int64]time.Duration), cov: cov}
}

// flush writes all dirty blocks back, charging bytes and one piggy-backed
// RPC per block, and returns how many blocks were flushed.
func (c *refClientCache) flush(o *Overhead, alg int) int {
	n := 0
	for b := range c.dirtyAt {
		delete(c.dirtyAt, b)
		o.Bytes[alg] += BlockSize
		o.RPCs[alg]++
		n++
	}
	return n
}

// expire writes back blocks dirty longer than the delayed-write interval.
func (c *refClientCache) expire(now time.Duration, o *Overhead, alg int) {
	for b, at := range c.dirtyAt {
		if now-at >= writebackDelay {
			delete(c.dirtyAt, b)
			o.Bytes[alg] += BlockSize
			o.RPCs[alg]++
			c.cov.expiries++
		}
	}
}

func (c *refClientCache) invalidate() {
	c.valid = make(map[int64]bool)
	// Dirty blocks are flushed by the caller before invalidation.
}

// refFileSim carries per-file state for the modified-Sprite and token schemes.
type refFileSim struct {
	// open bookkeeping (shared by all algorithms).
	readers map[int32]int
	writers map[int32]int

	// modified-Sprite caches, keyed by client.
	mod map[int32]*refClientCache

	// token state.
	tok      map[int32]*refClientCache
	writeTok int32 // client holding the write token, or -1
	readTok  map[int32]bool

	cov *overheadCoverage
}

func newRefFileSim(cov *overheadCoverage) *refFileSim {
	return &refFileSim{
		readers:  make(map[int32]int),
		writers:  make(map[int32]int),
		mod:      make(map[int32]*refClientCache),
		tok:      make(map[int32]*refClientCache),
		writeTok: -1,
		readTok:  make(map[int32]bool),
		cov:      cov,
	}
}

func (f *refFileSim) openers() int {
	n := len(f.readers)
	for c := range f.writers {
		if f.readers[c] == 0 {
			n++
		}
	}
	return n
}

// cwsActive reports instantaneous concurrent write-sharing.
func (f *refFileSim) cwsActive() bool {
	return f.openers() >= 2 && len(f.writers) >= 1
}

func (f *refFileSim) modCache(client int32) *refClientCache {
	c := f.mod[client]
	if c == nil {
		c = newRefClientCache(f.cov)
		f.mod[client] = c
	}
	return c
}

func (f *refFileSim) tokCache(client int32) *refClientCache {
	c := f.tok[client]
	if c == nil {
		c = newRefClientCache(f.cov)
		f.tok[client] = c
	}
	return c
}

// refSimModified: like Sprite, but the file is cacheable whenever concurrent
// write-sharing is not *instantaneously* active.
func refSimModified(f *refFileSim, o *Overhead, ev Event, isWrite bool) {
	if f.cwsActive() {
		// Pass-through, and every client's cached copy becomes stale on a
		// write (flush dirty first, then invalidate).
		o.Bytes[AlgModified] += ev.Bytes
		o.RPCs[AlgModified]++
		if isWrite {
			f.cov.cwsWrites++
			for _, c := range f.mod {
				c.flush(o, AlgModified)
				c.invalidate()
			}
		}
		return
	}
	refCacheOp(f.modCache(ev.Client), o, AlgModified, ev, isWrite)
	if isWrite {
		f.cov.cachedWrites++
		// Other clients' copies of the written blocks are now stale.
		first, last := blockRange(ev.Offset, ev.Bytes)
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

// refSimToken: read/write tokens with piggy-backed recalls.
func refSimToken(f *refFileSim, o *Overhead, ev Event, isWrite bool) {
	cl := ev.Client
	if isWrite {
		if f.writeTok != cl {
			// Acquire the write token: one request RPC; recalls are
			// piggy-backed onto it, but each recalled client costs one
			// callback RPC (carrying its dirty data when any).
			o.RPCs[AlgToken]++
			if f.writeTok >= 0 {
				f.cov.writeSteals++
				o.RPCs[AlgToken]++
				f.tokCache(f.writeTok).flush(o, AlgToken)
			}
			for r := range f.readTok {
				if r != cl {
					f.cov.readRecalls++
					o.RPCs[AlgToken]++
				}
				delete(f.readTok, r)
			}
			// Everyone else's cache is stale once this client writes.
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
	refCacheOp(f.tokCache(cl), o, AlgToken, ev, isWrite)
}

// refCacheOp applies a read or write to a simulated cache, charging block
// fetches for misses and write fetches for partial writes of non-resident
// blocks; writes dirty blocks under the 30-second delayed-write policy.
func refCacheOp(c *refClientCache, o *Overhead, alg int, ev Event, isWrite bool) {
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
				c.cov.writeFetches++
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

// deadlineTrace is a shared file whose writer writes the same block again
// exactly 30 seconds after first dirtying it: the delayed write comes due
// on that event, so the block is written back twice, not once.
func deadlineTrace() []trace.Record {
	return []trace.Record{
		rec(0, trace.KindOpen, 0, 1, trace.FlagWriteMode, 0, 0, 1),
		rec(1*time.Second, trace.KindWrite, 0, 1, trace.FlagShared, 0, 100, 1),
		rec(31*time.Second, trace.KindWrite, 0, 1, trace.FlagShared, 0, 100, 1),
		rec(32*time.Second, trace.KindClose, 0, 1, trace.FlagWriteMode, 0, 0, 1),
		rec(33*time.Second, trace.KindOpen, 1, 1, trace.FlagReadMode, 0, 0, 2),
		rec(34*time.Second, trace.KindClose, 1, 1, trace.FlagReadMode, 0, 0, 2),
	}
}

// doubleOpens counts the opens by which a client opens a file it already
// holds open.
func doubleOpens(st SharedTrace) int {
	held := make(map[[2]int64]int) // (client,file) -> opens not yet closed
	n := 0
	for _, ev := range st.Events {
		key := [2]int64{int64(ev.Client), int64(ev.File)}
		switch ev.Kind {
		case EvOpen:
			if held[key] > 0 {
				n++
			}
			held[key]++
		case EvClose:
			if held[key] > 0 {
				held[key]--
			}
		}
	}
	return n
}

// TestOverheadMatchesReference runs SimulateOverhead and its reference
// model in lockstep over random access patterns, a delayed write that
// comes due exactly on an event, and the cluster's traces. It fails unless
// the inputs together have a client open a file it already holds open and
// drive every path the reference counts in overheadCoverage.
func TestOverheadMatchesReference(t *testing.T) {
	traces := map[string]SharedTrace{"deadline": CollectShared(deadlineTrace())}
	for seed := int64(1); seed <= 40; seed++ {
		traces[fmt.Sprintf("random %d", seed)] = randomSharedTrace(seed, 1000)
	}
	for name, recs := range clusterTraces(t) {
		traces[name] = CollectShared(recs)
	}
	var cov overheadCoverage
	doubles := 0
	for name, st := range traces {
		got := SimulateOverhead(st)
		want, c := referenceSimulateOverhead(st)
		if got != want {
			t.Errorf("%s: simulator and reference differ:\n got %+v\nwant %+v", name, got, want)
		}
		cov.add(c)
		doubles += doubleOpens(st)
	}
	for _, c := range []struct {
		what string
		n    int
	}{
		{"a client opening a file it holds open", doubles},
		{"a write-token steal", cov.writeSteals},
		{"a read-token recall", cov.readRecalls},
		{"a modified-Sprite write during write-sharing", cov.cwsWrites},
		{"a modified-Sprite write outside it", cov.cachedWrites},
		{"a delayed-write expiry", cov.expiries},
		{"a write fetch", cov.writeFetches},
	} {
		if c.n == 0 {
			t.Errorf("no trace drove %s: the lockstep checks nothing there", c.what)
		}
	}
	t.Logf("double opens %d, coverage %+v", doubles, cov)
}

// FuzzOverhead: on any trace SimulateOverhead charges exactly what the
// reference model does.
func FuzzOverhead(f *testing.F) {
	f.Add([]byte{})
	// Client 0 writes file 1 while client 1 reads it; then client 1 opens
	// it a second time and writes through it.
	f.Add([]byte{
		1, byte(trace.KindOpen), trace.FlagWriteMode, 0, 1, 1, 0, 0,
		1, byte(trace.KindOpen), trace.FlagReadMode, 1, 1, 2, 0, 0,
		1, byte(trace.KindWrite), trace.FlagShared, 0, 1, 1, 9, 0,
		1, byte(trace.KindRead), trace.FlagShared, 1, 1, 2, 9, 0,
		1, byte(trace.KindOpen), trace.FlagWriteMode, 1, 1, 3, 0, 0,
		1, byte(trace.KindWrite), trace.FlagShared, 1, 1, 3, 0, 16,
		1, byte(trace.KindClose), trace.FlagReadMode, 1, 1, 2, 0, 0,
		200, byte(trace.KindRead), trace.FlagShared, 0, 1, 1, 0, 16,
	})
	f.Fuzz(func(t *testing.T, data []byte) {
		st := CollectShared(decodeRecords(data))
		got := SimulateOverhead(st)
		if want, _ := referenceSimulateOverhead(st); got != want {
			t.Errorf("simulator and reference differ:\n got %+v\nwant %+v", got, want)
		}
	})
}
