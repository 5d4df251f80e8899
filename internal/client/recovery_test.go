package client

import (
	"reflect"
	"testing"
	"time"

	"spritefs/internal/server"
)

// crashRestart crashes and immediately restarts the rig's server, the way
// the fault injector does (the outage itself is modeled as RPC latency).
func (r *testRig) crashRestart() {
	r.srv.Crash(r.sim.Now())
	r.srv.Restart(r.sim.Now())
}

func TestRecoverServerReopensAndReplays(t *testing.T) {
	r := newRig(t, 1)
	c := r.clients[0]

	file := c.Create(1, 100, false, false)
	h, _, err := c.Open(1, 100, file, false, true, false)
	if err != nil {
		t.Fatal(err)
	}
	c.Write(h, 10000) // dirty blocks sit in the client cache

	r.crashRestart()
	if got, _ := r.srv.Lookup(file).Registration(c.ID()); got != 0 {
		t.Fatal("registration survived crash")
	}

	res := c.RecoverServer(r.srv)
	if res.GaveUp || res.Files != 1 || res.Reopened != 1 {
		t.Fatalf("recovery = %+v, want 1 file / 1 handle", res)
	}
	if res.ReplayedBytes != 10000 {
		t.Errorf("replayed %d bytes, want 10000", res.ReplayedBytes)
	}
	if c.Cache.FileDirty(file) {
		t.Error("cache still dirty after replay")
	}
	if _, w := r.srv.Lookup(file).Registration(c.ID()); w != 1 {
		t.Errorf("writer registration = %d after recovery, want 1", w)
	}
	// The replayed bytes hit the server's WriteBack counter — conservation.
	if got := r.srv.Stats().WriteBackBytes; got != c.BytesWrittenBack() {
		t.Errorf("server got %d writeback bytes, client shipped %d", got, c.BytesWrittenBack())
	}
	// The normal close must now balance.
	if _, err := c.Close(h); err != nil {
		t.Errorf("close after recovery: %v", err)
	}
}

// TestRecoverServerReregistersOnlyItsFiles: recovery against one server
// re-registers the handles of that server's files alone. Another server's
// open file costs it no RPC, and its dirty blocks stay in the cache rather
// than being dropped as a file the restarted server does not know.
func TestRecoverServerReregistersOnlyItsFiles(t *testing.T) {
	r := newRig(t, 0)
	other := server.New(1)
	srvs := []*server.Server{r.srv, other}
	c := New(DefaultConfig(0), r.sim, r.net, func(f uint64) *server.Server { return srvs[server.HomeOf(f)] }, r.srv, r)
	c.SetCoordinator(r)

	mine := c.Create(1, 100, false, false)
	theirs := other.Create(false, r.sim.Now()).ID
	for _, f := range []uint64{mine, theirs} {
		h, _, err := c.Open(1, 100, f, false, true, false)
		if err != nil {
			t.Fatal(err)
		}
		c.Write(h, 5000)
	}
	r.crashRestart()
	res := c.RecoverServer(r.srv)
	if res.Files != 1 || res.Reopened != 1 || res.ReplayedBytes != 5000 {
		t.Fatalf("recovery = %+v, want 1 file / 1 handle / 5000 bytes", res)
	}
	if !c.Cache.FileDirty(theirs) {
		t.Error("the other server's dirty blocks were dropped")
	}
	if _, w := other.Lookup(theirs).Registration(c.ID()); w != 1 {
		t.Errorf("writer registration on the other server = %d, want 1", w)
	}
}

func TestLazyDetectionOnOpen(t *testing.T) {
	r := newRig(t, 1)
	c := r.clients[0]

	file := c.Create(1, 100, false, false)
	h, _, err := c.Open(1, 100, file, false, true, false)
	if err != nil {
		t.Fatal(err)
	}
	c.Write(h, 5000)

	r.crashRestart()

	// No explicit recovery call: the next open must notice the epoch bump,
	// run the protocol, and leave the open tables exact.
	other := c.Create(1, 100, false, false)
	h2, _, err := c.Open(1, 100, other, true, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.RecoveryStats().Recoveries; got != 1 {
		t.Fatalf("Recoveries = %d, want 1 (lazy detection missed)", got)
	}
	if _, w := r.srv.Lookup(file).Registration(c.ID()); w != 1 {
		t.Errorf("writer registration = %d after lazy recovery, want 1", w)
	}
	if c.Cache.FileDirty(file) {
		t.Error("dirty data not replayed by lazy recovery")
	}
	if _, err := c.Close(h2); err != nil {
		t.Error(err)
	}
	if _, err := c.Close(h); err != nil {
		t.Error(err)
	}
}

func TestRecoverRetriesThenGivesUpWhileDown(t *testing.T) {
	r := newRig(t, 1)
	c := r.clients[0]

	file := c.Create(1, 100, false, false)
	if _, _, err := c.Open(1, 100, file, false, true, false); err != nil {
		t.Fatal(err)
	}
	r.srv.Crash(r.sim.Now()) // no restart: server stays down

	res := c.RecoverServer(r.srv)
	if !res.GaveUp || res.Retries != RecoveryRetryLimit {
		t.Fatalf("recovery against down server = %+v, want give-up after %d retries", res, RecoveryRetryLimit)
	}
	// Exponential backoff: total wait is (2^limit - 1) * base.
	want := time.Duration((1<<RecoveryRetryLimit)-1) * RecoveryBackoff
	if res.Latency != want {
		t.Errorf("backoff latency = %v, want %v", res.Latency, want)
	}
	if got := c.RecoveryStats().GaveUp; got != 1 {
		t.Errorf("GaveUp = %d, want 1", got)
	}

	// After restart the abandoned recovery must still happen lazily.
	r.srv.Restart(r.sim.Now())
	res = c.RecoverServer(r.srv)
	if res.GaveUp || res.Files != 1 {
		t.Fatalf("post-restart recovery = %+v", res)
	}
}

func TestRecoveryIsIdempotentAtClient(t *testing.T) {
	r := newRig(t, 1)
	c := r.clients[0]

	file := c.Create(1, 100, false, false)
	if _, _, err := c.Open(1, 100, file, false, true, false); err != nil {
		t.Fatal(err)
	}
	r.crashRestart()

	c.RecoverServer(r.srv)
	// Second call is a no-op: the epoch is synced, nothing was lost.
	res := c.RecoverServer(r.srv)
	if res.Files != 0 || res.Reopened != 0 {
		t.Errorf("duplicate recovery did work: %+v", res)
	}
	if _, w := r.srv.Lookup(file).Registration(c.ID()); w != 1 {
		t.Errorf("writer registration = %d, want 1 (double-counted)", w)
	}
}

func TestRecoveryRedetectsSharingAcrossClients(t *testing.T) {
	r := newRig(t, 2)
	writer, reader := r.clients[0], r.clients[1]

	file := writer.Create(1, 100, false, false)
	hw, _, err := writer.Open(1, 100, file, false, true, false)
	if err != nil {
		t.Fatal(err)
	}
	hr, _, err := reader.Open(2, 200, file, true, false, false)
	if err != nil {
		t.Fatal(err)
	}
	if !r.srv.Lookup(file).Uncacheable() {
		t.Fatal("no write-sharing before crash")
	}
	r.crashRestart()

	reader.RecoverServer(r.srv)
	if r.srv.Lookup(file).Uncacheable() {
		t.Fatal("sharing re-detected with only a reader registered")
	}
	writer.RecoverServer(r.srv)
	if !r.srv.Lookup(file).Uncacheable() {
		t.Fatal("write-sharing not re-detected after both recovered")
	}
	if got := r.srv.Stats().RecoveryCWS; got != 1 {
		t.Errorf("RecoveryCWS = %d, want 1", got)
	}
	writer.Close(hw)
	reader.Close(hr)
}

func TestClientCrashMeasuresLossAndDisconnects(t *testing.T) {
	r := newRig(t, 1)
	c := r.clients[0]

	file := c.Create(1, 100, false, false)
	h, _, err := c.Open(1, 100, file, false, true, false)
	if err != nil {
		t.Fatal(err)
	}
	c.Write(h, 3000)

	loss := c.Crash(r.sim.Now())
	if loss.DirtyBytes != 3000 {
		t.Errorf("lost %d dirty bytes, want 3000", loss.DirtyBytes)
	}
	if dropped := r.srv.Disconnect(c.ID(), r.sim.Now()); dropped != 1 {
		t.Errorf("server dropped %d registrations, want 1", dropped)
	}
	st := c.RecoveryStats()
	if st.Crashes != 1 || st.LostDirtyBytes != 3000 {
		t.Errorf("recovery stats = %+v", st)
	}
	// The dead machine's handles are gone; a fresh open works normally.
	if _, _, err := c.Open(1, 100, file, true, false, false); err != nil {
		t.Errorf("open after client crash: %v", err)
	}
}

// TestCrashKeepsPerModeState checks the state a client keeps only when it
// needs it: the poll scheme's validation times exist under ConsistencyPoll
// alone, before and after a crash; the open handles, the file versions and
// the cache's file indexes exist only once used, and a crash returns the
// workstation to that set-up footprint; and the per-server epochs tell a
// restart from epoch 0 to epoch 1 apart from a server never contacted.
func TestCrashKeepsPerModeState(t *testing.T) {
	r := newRig(t, 1)
	sprite := r.clients[0]
	if sprite.validated != nil {
		t.Fatal("Sprite-mode client has poll validation state")
	}
	// files is unexported in fscache; reflect reads whether it is nil.
	setUp := func(c *Client) bool {
		return c.handles == nil && c.versions == nil && reflect.ValueOf(c.Cache).Elem().FieldByName("files").IsNil()
	}
	if !setUp(sprite) {
		t.Fatal("a new client made its handle, version or cache-file map before first use")
	}
	f := sprite.Create(1, 100, false, false)
	open, _, err := sprite.Open(1, 100, f, false, true, false)
	if err != nil {
		t.Fatal(err)
	}
	sprite.Write(open, 4096)
	if setUp(sprite) {
		t.Fatal("an open and a write left the client at its set-up footprint")
	}

	// A poll-mode client homed on server 2, so its epochs grow past 0.
	srv := server.New(2)
	cfg := DefaultConfig(1)
	cfg.Consistency = ConsistencyPoll
	poll := New(cfg, r.sim, r.net, func(uint64) *server.Server { return srv }, srv, r)
	file := poll.Create(1, 100, false, false)
	h, _, err := poll.Open(1, 100, file, false, true, false)
	if err != nil {
		t.Fatal(err)
	}
	poll.Write(h, 4096)
	if _, ok := poll.validated[file]; !ok {
		t.Fatal("poll-mode write did not record a validation")
	}

	sprite.Crash(r.sim.Now())
	poll.Crash(r.sim.Now())
	if sprite.validated != nil {
		t.Error("Sprite-mode client gained poll validation state in Crash")
	}
	if !setUp(sprite) || !setUp(poll) {
		t.Error("Crash kept a handle, version or cache-file map")
	}
	// The nil maps still answer: the handle open at the crash is gone.
	if sprite.HasHandle(open) {
		t.Error("HasHandle reports a handle opened before the crash")
	}
	if _, err := sprite.Close(open); err == nil {
		t.Error("Close of a handle opened before the crash succeeded")
	}
	sprite.DisableFor(f)
	r.srv.Disconnect(sprite.ID(), r.sim.Now())
	// A fresh open, write and close after the crash.
	h, _, err = sprite.Open(1, 100, f, true, true, false)
	if err != nil {
		t.Fatal(err)
	}
	sprite.Write(h, 4096)
	if _, err := sprite.Close(h); err != nil {
		t.Fatal(err)
	}
	if sprite.HasHandle(h) || !sprite.Cache.Contains(f, 0) || sprite.versions[f] != r.srv.Lookup(f).Version {
		t.Error("open, write and close after the crash: handle kept, block not cached or version not recorded")
	}
	if poll.validated == nil || len(poll.validated) != 0 {
		t.Fatalf("poll-mode validation state after Crash = %v, want empty and usable", poll.validated)
	}

	// Open against the fresh server (epoch 0) after the crash, then restart
	// it to epoch 1: the next open must run the recovery protocol.
	if srv.Epoch() != 0 {
		t.Fatalf("fresh server at epoch %d", srv.Epoch())
	}
	h, _, err = poll.Open(1, 100, file, true, false, false)
	if err != nil {
		t.Fatal(err)
	}
	poll.Read(h, 4096)
	if _, ok := poll.validated[file]; !ok {
		t.Error("poll-mode read after Crash did not record a validation")
	}
	srv.Crash(r.sim.Now())
	srv.Restart(r.sim.Now())
	if srv.Epoch() != 1 {
		t.Fatalf("restarted server at epoch %d, want 1", srv.Epoch())
	}
	if _, _, err := poll.Open(1, 100, file, true, false, false); err != nil {
		t.Fatal(err)
	}
	if got := poll.RecoveryStats().Recoveries; got != 1 {
		t.Errorf("Recoveries = %d after a restart from epoch 0 to 1, want 1", got)
	}
}

// newModeRig is newRig with one client under the given consistency scheme.
func newModeRig(t *testing.T, mode ConsistencyMode) *testRig {
	t.Helper()
	r := newRig(t, 0)
	cfg := DefaultConfig(0)
	cfg.Consistency = mode
	c := New(cfg, r.sim, r.net, func(uint64) *server.Server { return r.srv }, r.srv, r)
	c.SetCoordinator(r)
	r.clients = append(r.clients, c)
	return r
}

// TestOpenVersionCheckIsSpriteOnly: an open checks the cached copy's
// version only under Sprite's scheme; the polling scheme leaves a copy
// whose version moved at the server in the cache until an access
// revalidates it.
func TestOpenVersionCheckIsSpriteOnly(t *testing.T) {
	for _, mode := range []ConsistencyMode{ConsistencySprite, ConsistencyPoll} {
		r := newModeRig(t, mode)
		c := r.clients[0]
		file := c.Create(1, 100, false, false)
		h, _, err := c.Open(1, 100, file, false, true, false)
		if err != nil {
			t.Fatal(err)
		}
		c.Write(h, 4096)
		c.Fsync(h)
		c.Close(h)
		cached := c.Cache.NumBlocks()
		if cached == 0 {
			t.Fatalf("mode %d: the write left nothing cached", mode)
		}
		// Another client's pass-through write moves the server's version.
		r.srv.Write(file, 0, 1, r.sim.Now())
		if _, _, err := c.Open(1, 100, file, true, false, false); err != nil {
			t.Fatal(err)
		}
		wantBlocks, wantInvalids := 0, int64(1)
		if mode == ConsistencyPoll {
			wantBlocks, wantInvalids = cached, 0
		}
		if got := c.Cache.NumBlocks(); got != wantBlocks {
			t.Errorf("mode %d: %d blocks cached after the open, want %d", mode, got, wantBlocks)
		}
		if got := r.srv.Stats().Invalids; got != wantInvalids {
			t.Errorf("mode %d: Invalids = %d, want %d", mode, got, wantInvalids)
		}
	}
}

// TestRecoverServerInvalidatesMovedVersion: under either scheme, recovery
// drops a cached copy whose version moved while the client's registration
// was lost, and counts the invalidation at the server.
func TestRecoverServerInvalidatesMovedVersion(t *testing.T) {
	for _, mode := range []ConsistencyMode{ConsistencySprite, ConsistencyPoll} {
		r := newModeRig(t, mode)
		c := r.clients[0]
		file := c.Create(1, 100, false, false)
		h, _, err := c.Open(1, 100, file, true, true, false)
		if err != nil {
			t.Fatal(err)
		}
		c.Write(h, 4096)
		c.Fsync(h)
		if c.Cache.NumBlocks() == 0 {
			t.Fatalf("mode %d: the write left nothing cached", mode)
		}
		r.crashRestart()
		// The version moves before this client re-registers.
		r.srv.Write(file, 0, 1, r.sim.Now())
		if res := c.RecoverServer(r.srv); res.Files != 1 {
			t.Fatalf("mode %d: recovery = %+v, want 1 file", mode, res)
		}
		if got := c.Cache.NumBlocks(); got != 0 {
			t.Errorf("mode %d: %d blocks still cached after recovery, want 0", mode, got)
		}
		if got := r.srv.Stats().Invalids; got != 1 {
			t.Errorf("mode %d: Invalids = %d, want 1", mode, got)
		}
		if _, err := c.Close(h); err != nil {
			t.Errorf("mode %d: close after recovery: %v", mode, err)
		}
	}
}
