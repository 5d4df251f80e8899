package client

import (
	"testing"
	"time"

	"spritefs/internal/fscache"
	"spritefs/internal/netsim"
	"spritefs/internal/server"
	"spritefs/internal/sim"
	"spritefs/internal/trace"
)

// testRig assembles one server, a network and n clients with a trivial
// coordinator, mirroring the cluster package in miniature.
type testRig struct {
	sim     *sim.Sim
	srv     *server.Server
	net     *netsim.Network
	clients []*Client
	recs    []trace.Record
}

func (r *testRig) Emit(rec trace.Record) { r.recs = append(r.recs, rec) }

func (r *testRig) RecallFrom(client int32, file uint64) {
	r.clients[client].FlushForRecall(file)
}

func (r *testRig) DisableCaching(clients []int32, file uint64) {
	for _, id := range clients {
		r.clients[id].DisableFor(file)
	}
}

func newRig(t *testing.T, n int) *testRig {
	t.Helper()
	r := &testRig{
		sim: sim.New(1),
		srv: server.New(0),
		net: netsim.New(netsim.DefaultConfig()),
	}
	route := func(uint64) *server.Server { return r.srv }
	for i := 0; i < n; i++ {
		cfg := DefaultConfig(int32(i))
		c := New(cfg, r.sim, r.net, route, r.srv, r)
		c.SetCoordinator(r)
		r.clients = append(r.clients, c)
	}
	return r
}

// tickCleaner runs c's delayed-write daemon on the rig's clock, as the
// cluster does for its workstations.
func (r *testRig) tickCleaner(c *Client) {
	r.sim.Every(0, fscache.CleanerPeriod, func() { c.CleanTick(r.sim.Now()) })
}

func (r *testRig) kinds() []trace.Kind {
	out := make([]trace.Kind, len(r.recs))
	for i, rec := range r.recs {
		out[i] = rec.Kind
	}
	return out
}

func TestCreateWriteCloseReadRoundTrip(t *testing.T) {
	r := newRig(t, 1)
	c := r.clients[0]

	file := c.Create(1, 100, false, false)
	h, _, err := c.Open(1, 100, file, false, true, false)
	if err != nil {
		t.Fatal(err)
	}
	c.Write(h, 10000)
	if _, err := c.Close(h); err != nil {
		t.Fatal(err)
	}
	f := r.srv.Lookup(file)
	if f == nil || f.Size != 10000 {
		t.Fatalf("server size = %v", f)
	}

	h2, _, err := c.Open(1, 100, file, true, false, false)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := c.Read(h2, 99999) // clamped to size
	if got != 10000 {
		t.Errorf("read %d bytes, want 10000", got)
	}
	c.Close(h2)

	// The freshly written data was still cached: no file-read traffic.
	if b := r.net.Total().Bytes[netsim.FileRead]; b != 0 {
		t.Errorf("read of own cached data fetched %d bytes from server", b)
	}

	wantKinds := []trace.Kind{
		trace.KindCreate, trace.KindOpen, trace.KindWrite, trace.KindClose,
		trace.KindOpen, trace.KindRead, trace.KindClose,
	}
	got2 := r.kinds()
	if len(got2) != len(wantKinds) {
		t.Fatalf("trace kinds = %v", got2)
	}
	for i, k := range wantKinds {
		if got2[i] != k {
			t.Errorf("record %d = %v, want %v", i, got2[i], k)
		}
	}
}

func TestDelayedWriteShipsAfter30s(t *testing.T) {
	r := newRig(t, 1)
	c := r.clients[0]
	r.tickCleaner(c)
	file := c.Create(1, 100, false, false)
	h, _, _ := c.Open(1, 100, file, false, true, false)
	c.Write(h, 8192)
	c.Close(h)

	r.sim.RunUntil(20 * time.Second)
	if b := r.net.Total().Bytes[netsim.FileWrite]; b != 0 {
		t.Errorf("writeback before 30s: %d bytes", b)
	}
	r.sim.RunUntil(40 * time.Second)
	if b := r.net.Total().Bytes[netsim.FileWrite]; b != 8192 {
		t.Errorf("writeback after 30s = %d bytes, want 8192", b)
	}
}

func TestDeleteBeforeWritebackSavesTraffic(t *testing.T) {
	r := newRig(t, 1)
	c := r.clients[0]
	r.tickCleaner(c)
	file := c.Create(1, 100, false, false)
	h, _, _ := c.Open(1, 100, file, false, true, false)
	c.Write(h, 8192)
	c.Close(h)
	r.sim.RunUntil(10 * time.Second)
	c.Delete(1, 100, file, false)
	r.sim.RunUntil(2 * time.Minute)
	if b := r.net.Total().Bytes[netsim.FileWrite]; b != 0 {
		t.Errorf("deleted data was written back: %d bytes", b)
	}
	if saved := c.Cache.Stats().BytesSavedByDelete; saved != 8192 {
		t.Errorf("saved = %d", saved)
	}
}

func TestFsyncWritesThrough(t *testing.T) {
	r := newRig(t, 1)
	c := r.clients[0]
	file := c.Create(1, 100, false, false)
	h, _, _ := c.Open(1, 100, file, false, true, false)
	c.Write(h, 4096)
	c.Fsync(h)
	if b := r.net.Total().Bytes[netsim.FileWrite]; b != 4096 {
		t.Errorf("fsync shipped %d bytes", b)
	}
	c.Close(h)
}

func TestCrossClientRecallDeliversFreshData(t *testing.T) {
	r := newRig(t, 2)
	a, b := r.clients[0], r.clients[1]

	file := a.Create(1, 100, false, false)
	h, _, _ := a.Open(1, 100, file, false, true, false)
	a.Write(h, 5000)
	a.Close(h)

	// Client B opens before A's delayed write fires: the server recalls
	// A's dirty data.
	h2, _, err := b.Open(2, 200, file, true, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if r.srv.Stats().Recalls != 1 {
		t.Errorf("recalls = %d", r.srv.Stats().Recalls)
	}
	// A's dirty bytes traveled to the server during the recall.
	if bytes := r.net.Total().Bytes[netsim.FileWrite]; bytes != 5000 {
		t.Errorf("recalled bytes = %d", bytes)
	}
	got, _ := b.Read(h2, 5000)
	if got != 5000 {
		t.Errorf("B read %d bytes", got)
	}
	b.Close(h2)
}

func TestConcurrentWriteSharingBypassesCaches(t *testing.T) {
	r := newRig(t, 2)
	a, b := r.clients[0], r.clients[1]
	file := a.Create(1, 100, false, false)

	// Seed the file with data.
	h, _, _ := a.Open(1, 100, file, false, true, false)
	a.Write(h, 8192)
	a.Close(h)

	ha, _, _ := a.Open(1, 100, file, true, false, false)
	hb, _, err := b.Open(2, 200, file, false, true, false)
	if err != nil {
		t.Fatal(err)
	}
	if r.srv.Stats().CWSEvents != 1 {
		t.Fatalf("CWS events = %d", r.srv.Stats().CWSEvents)
	}
	// B's writes pass through.
	b.Write(hb, 1000)
	if got := r.net.Total().Bytes[netsim.SharedWrite]; got != 1000 {
		t.Errorf("pass-through write bytes = %d", got)
	}
	// A's reads pass through too (its cache was disabled).
	a.Seek(ha, 0)
	a.Read(ha, 2000)
	if got := r.net.Total().Bytes[netsim.SharedRead]; got != 2000 {
		t.Errorf("pass-through read bytes = %d", got)
	}
	// Shared records carry FlagShared for the Section 5.5/5.6 simulators.
	shared := 0
	for _, rec := range r.recs {
		if rec.Flags&trace.FlagShared != 0 && (rec.Kind == trace.KindRead || rec.Kind == trace.KindWrite) {
			shared++
		}
	}
	if shared != 2 {
		t.Errorf("shared-flagged records = %d, want 2", shared)
	}

	a.Close(ha)
	b.Close(hb)
	// After all closes the file is cacheable again.
	h3, _, _ := a.Open(1, 100, file, true, false, false)
	a.Read(h3, 1000)
	a.Close(h3)
	if f := r.srv.Lookup(file); f.Uncacheable() {
		t.Error("file still uncacheable")
	}
}

func TestStaleVersionInvalidation(t *testing.T) {
	r := newRig(t, 2)
	a, b := r.clients[0], r.clients[1]
	file := a.Create(1, 100, false, false)

	// A writes and closes; data eventually reaches the server via fsync.
	h, _, _ := a.Open(1, 100, file, false, true, false)
	a.Write(h, 4096)
	a.Fsync(h)
	a.Close(h)

	// B reads the file and caches it.
	h2, _, _ := b.Open(2, 200, file, true, false, false)
	b.Read(h2, 4096)
	b.Close(h2)
	if b.Cache.NumBlocks() == 0 {
		t.Fatal("B cached nothing")
	}

	// A overwrites (fsync to bump the version at the server).
	h3, _, _ := a.Open(1, 100, file, false, true, false)
	a.Write(h3, 4096)
	a.Fsync(h3)
	a.Close(h3)

	// B re-opens: version mismatch flushes its stale copy and the read
	// goes to the server.
	before := r.net.Total().Bytes[netsim.FileRead]
	h4, _, _ := b.Open(2, 200, file, true, false, false)
	b.Read(h4, 4096)
	b.Close(h4)
	if got := r.net.Total().Bytes[netsim.FileRead] - before; got != 4096 {
		t.Errorf("B fetched %d bytes after invalidation, want 4096", got)
	}
	if r.srv.Stats().Invalids == 0 {
		t.Error("invalidation not counted")
	}
}

func TestDirectoryReadsBypassCache(t *testing.T) {
	r := newRig(t, 1)
	c := r.clients[0]
	dir := c.Create(1, 100, true, false)
	r.srv.Grow(dir, 2048, 0)
	h, _, _ := c.Open(1, 100, dir, true, false, false)
	c.Read(h, 2048)
	c.Read(h, 10) // past end: 0 bytes
	c.Close(h)
	if got := r.net.Total().Bytes[netsim.DirRead]; got != 2048 {
		t.Errorf("dir-read bytes = %d", got)
	}
	_, _, dirB := c.SharedBytes()
	if dirB != 2048 {
		t.Errorf("dirReadBytes = %d", dirB)
	}
	if c.Cache.NumBlocks() != 0 {
		t.Error("directory data entered the client cache")
	}
}

func TestSeekEmitsRepositionAndChargesRPC(t *testing.T) {
	r := newRig(t, 1)
	c := r.clients[0]
	file := c.Create(1, 100, false, false)
	h, _, _ := c.Open(1, 100, file, false, true, false)
	c.Write(h, 10000)
	ops := r.net.Total().Ops[netsim.Control]
	c.Seek(h, 0)
	if r.net.Total().Ops[netsim.Control] != ops+1 {
		t.Error("seek did not charge a control RPC")
	}
	found := false
	for _, rec := range r.recs {
		if rec.Kind == trace.KindReposition && rec.Offset == 0 {
			found = true
		}
	}
	if !found {
		t.Error("no reposition record")
	}
	c.Close(h)
}

func TestPagingGoesThroughCacheForCode(t *testing.T) {
	r := newRig(t, 1)
	c := r.clients[0]
	// Build an "executable" of 20 pages.
	exec := c.Create(1, 100, false, false)
	h, _, _ := c.Open(1, 100, exec, false, true, false)
	c.Write(h, 20*4096)
	c.Fsync(h)
	c.Close(h)
	c.Cache.Invalidate(exec) // simulate a cold cache

	before := r.net.Total().Bytes[netsim.PagingRead]
	c.ExecProcess(500, exec, 10, 5, 2, false)
	pagedIn := r.net.Total().Bytes[netsim.PagingRead] - before
	if pagedIn != 15*4096 {
		t.Errorf("cold exec paged in %d bytes, want %d", pagedIn, 15*4096)
	}
	c.ExitProcess(500)

	// Second run: code pages retained, data pages still in file cache —
	// no new paging traffic at all.
	before = r.net.Total().Bytes[netsim.PagingRead]
	c.ExecProcess(501, exec, 10, 5, 2, false)
	if got := r.net.Total().Bytes[netsim.PagingRead] - before; got != 0 {
		t.Errorf("warm exec paged in %d bytes, want 0", got)
	}
	c.ExitProcess(501)
}

func TestBackingTrafficBypassesCache(t *testing.T) {
	r := newRig(t, 1)
	c := r.clients[0]
	exec := c.Create(1, 100, false, false)
	c.ExecProcess(600, exec, 1, 0, 2, true)
	c.TouchProcess(600, 4)
	c.EvictMigrated(600)
	if got := r.net.Total().Bytes[netsim.PagingWrite]; got != 6*4096 {
		t.Errorf("backing writes = %d, want %d (4 heap + 2 stack pages)", got, 6*4096)
	}
	if c.Cache.Stats().All.BytesWritten != 0 {
		t.Error("backing traffic entered the file cache")
	}
	c.ExitProcess(600)
}

func TestOpenUnknownFileErrors(t *testing.T) {
	r := newRig(t, 1)
	if _, _, err := r.clients[0].Open(1, 1, 424242, true, false, false); err == nil {
		t.Error("open of unknown file succeeded")
	}
}

func TestCloseUnknownHandleErrors(t *testing.T) {
	r := newRig(t, 1)
	if _, err := r.clients[0].Close(999); err == nil {
		t.Error("close of unknown handle succeeded")
	}
}

func TestReadOnWriteOnlyHandle(t *testing.T) {
	r := newRig(t, 1)
	c := r.clients[0]
	file := c.Create(1, 100, false, false)
	h, _, _ := c.Open(1, 100, file, false, true, false)
	c.Write(h, 100)
	if n, _ := c.Read(h, 100); n != 0 {
		t.Errorf("read on write-only handle returned %d", n)
	}
	c.Close(h)
}

func TestMigratedFlagPropagates(t *testing.T) {
	r := newRig(t, 1)
	c := r.clients[0]
	file := c.Create(1, 100, false, true)
	h, _, _ := c.Open(1, 100, file, false, true, true)
	c.Write(h, 4096)
	c.Close(h)
	for _, rec := range r.recs {
		if !rec.IsMigrated() {
			t.Errorf("record %v lacks migrated flag", rec.Kind)
		}
	}
	if c.Cache.Stats().Migrated.BytesWritten != 4096 {
		t.Error("migrated bytes not attributed in cache counters")
	}
}

func TestTruncateDropsCachedData(t *testing.T) {
	r := newRig(t, 1)
	c := r.clients[0]
	file := c.Create(1, 100, false, false)
	h, _, _ := c.Open(1, 100, file, false, true, false)
	c.Write(h, 8192)
	c.Close(h)
	c.Truncate(1, 100, file, false)
	if f := r.srv.Lookup(file); f.Size != 0 {
		t.Errorf("size after truncate = %d", f.Size)
	}
	if c.Cache.DirtyBytes() != 0 {
		t.Errorf("dirty bytes after truncate = %d", c.Cache.DirtyBytes())
	}
	if r.srv.Stats().Truncates != 1 {
		t.Error("truncate not counted")
	}
}

func TestHandleIDsUniqueAcrossClients(t *testing.T) {
	r := newRig(t, 2)
	file := r.clients[0].Create(1, 100, false, false)
	h0, _, _ := r.clients[0].Open(1, 100, file, true, false, false)
	h1, _, _ := r.clients[1].Open(2, 200, file, true, false, false)
	if h0 == h1 {
		t.Error("handle collision across clients")
	}
	r.clients[0].Close(h0)
	r.clients[1].Close(h1)
}
