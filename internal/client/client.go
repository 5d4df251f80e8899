// Package client implements the Sprite client kernel as the workload sees
// it: the file-system call layer (open, read, write, seek, close, create,
// delete, truncate, fsync, directory reads) wired to the client block
// cache, the virtual memory system, the shared network and the file
// servers. Every kernel call that the paper's instrumentation logged is
// emitted as a trace record here, and the 5-second cache cleaner daemon's
// work (CleanTick; the cluster owns its timers), the FS/VM memory trading,
// and the consistency call-backs (recall, cache disabling) are all driven
// from this layer.
package client

import (
	"fmt"
	"time"

	"spritefs/internal/fscache"
	"spritefs/internal/netsim"
	"spritefs/internal/server"
	"spritefs/internal/sim"
	"spritefs/internal/trace"
	"spritefs/internal/vm"
)

// Tracer receives trace records as kernel calls execute. The cluster layer
// provides one that appends to per-server trace files.
type Tracer interface {
	Emit(rec trace.Record)
}

// NopTracer discards records (used when only counters are being collected,
// as in the paper's two-week counter study).
type NopTracer struct{}

// Emit implements Tracer.
func (NopTracer) Emit(trace.Record) {}

// Coordinator performs cross-client consistency actions on behalf of the
// server. The cluster layer implements it.
type Coordinator interface {
	// RecallFrom flushes the named client's dirty data for file to the
	// server (the server recalls dirty data from the last writer).
	RecallFrom(client int32, file uint64)
	// DisableCaching tells clients to flush and bypass their caches for
	// file (concurrent write-sharing began).
	DisableCaching(clients []int32, file uint64)
}

// ConsistencyMode selects how the client keeps its cache consistent.
type ConsistencyMode int

const (
	// ConsistencySprite is the measured system's "perfect" consistency:
	// version timestamps at open, dirty-data recall, cache disabling
	// under concurrent write-sharing.
	ConsistencySprite ConsistencyMode = iota
	// ConsistencyPoll is the weaker NFS-style scheme the paper simulated
	// in Section 5.5: cached data is trusted for a fixed validity window;
	// the first access after expiry revalidates with the server; writes
	// go through to the server almost immediately. Running it LIVE (the
	// paper could only estimate from traces) lets the cluster count the
	// stale reads users would actually have seen.
	ConsistencyPoll
)

// Config sizes one client workstation.
type Config struct {
	ID int32
	// MemoryPages is physical memory in 4 KB pages (24-32 MB in the
	// measured cluster).
	MemoryPages int
	// FixedCachePages pins the cache at a constant size, disabling the
	// dynamic FS/VM trading (used by the cache-size sweep, which
	// reproduces the BSD study's fixed-size predictions).
	FixedCachePages int
	// Consistency selects the cache-consistency scheme.
	Consistency ConsistencyMode
	// PollInterval is the validity window under ConsistencyPoll (the
	// paper simulated 3 s and 60 s). Zero defaults to 60 s.
	PollInterval time.Duration
}

// DefaultConfig returns a 24 MB workstation matching the paper's average
// client, with the cache starting small and growing on demand.
func DefaultConfig(id int32) Config {
	return Config{
		ID:          id,
		MemoryPages: 24 << 20 / vm.PageSize,
	}
}

// Dynamic cache sizing, in 4 KB pages: the file cache starts at 1 MB and
// grows toward its "natural" size one chunk per attempt; VM pressure
// cannot shrink it below the floor.
const (
	initialCachePages = 256
	minCachePages     = 64
	growChunk         = 64
)

type handle struct {
	id       uint64
	file     uint64
	read     bool
	write    bool
	pos      int64
	user     int32
	proc     int32
	migrated bool
	wrote    bool // wrote at least once (dirty-at-close hint for the server)
	shared   bool // opened (or switched) uncacheable due to write-sharing
}

// Client is one diskless workstation.
type Client struct {
	cfg    Config
	sim    *sim.Sim
	net    *netsim.Network
	route  func(file uint64) *server.Server
	home   *server.Server
	coord  Coordinator
	tracer Tracer

	Cache *fscache.Cache
	Mem   *vm.Memory
	VM    *vm.System

	// The open handles by id, and each file's server version that the
	// cached data matches. Both maps are made at their first entry: nil
	// on a workstation that has opened nothing, and again after Crash.
	handles    map[uint64]*handle
	nextHandle uint64
	// hFree recycles closed handle structs; opens and closes are among the
	// most frequent kernel calls the workload issues.
	hFree    []*handle
	versions map[uint64]uint64

	// Poll-mode state: when each file's cached data was last validated
	// (nil under any other scheme), and the stale reads the weak scheme
	// served (counted omnisciently).
	validated  map[uint64]time.Duration
	staleReads int64
	staleBytes int64
	pollRPCs   int64

	// Pass-through byte counters (Table 5's uncacheable rows).
	sharedReadBytes  int64
	sharedWriteBytes int64
	dirReadBytes     int64

	// bytesWrittenBack counts every byte shipped to any server via
	// WriteBack — the client side of the conservation invariant the fault
	// harness checks against the servers' WriteBackBytes counters.
	bytesWrittenBack int64

	// epochs tracks the restart generation last seen per server, indexed
	// by server id and stored plus one, so 0 means never seen; a
	// mismatch on the next contact triggers the recovery protocol
	// (recovery.go).
	epochs []uint64
	rec    RecoveryStats
}

// New assembles a client. route maps file ids to their server; home is the
// server on which this client creates new files (the measured cluster
// concentrated most traffic on one Sun 4 server). The coordinator may be
// set later via SetCoordinator (the cluster wires clients and coordinator
// together after constructing both).
func New(cfg Config, s *sim.Sim, net *netsim.Network, route func(uint64) *server.Server, home *server.Server, tracer Tracer) *Client {
	initial, floor := initialCachePages, minCachePages
	if cfg.FixedCachePages > 0 {
		initial, floor = cfg.FixedCachePages, cfg.FixedCachePages
		if cfg.MemoryPages < cfg.FixedCachePages {
			cfg.MemoryPages = cfg.FixedCachePages
		}
	}
	if cfg.MemoryPages <= 0 {
		panic(fmt.Sprintf("client: bad config %+v", cfg))
	}
	if tracer == nil {
		tracer = NopTracer{}
	}
	if home == nil {
		panic("client: nil home server")
	}
	c := &Client{
		cfg:    cfg,
		sim:    s,
		net:    net,
		route:  route,
		home:   home,
		tracer: tracer,
		Cache:  fscache.New(initial),
		Mem:    vm.NewMemory(cfg.MemoryPages, initial, floor),
	}
	if c.cfg.Consistency == ConsistencyPoll {
		c.validated = make(map[uint64]time.Duration)
	}
	if c.cfg.PollInterval <= 0 {
		c.cfg.PollInterval = 60 * time.Second
	}
	c.VM = vm.NewSystem(c.Mem, c)
	return c
}

// ID returns the workstation id.
func (c *Client) ID() int32 { return c.cfg.ID }

// SetCoordinator wires the cross-client consistency callbacks.
func (c *Client) SetCoordinator(coord Coordinator) { c.coord = coord }

// SharedBytes returns pass-through bytes (reads, writes) for write-shared
// files, plus directory read bytes — the uncacheable raw traffic.
func (c *Client) SharedBytes() (readB, writeB, dirB int64) {
	return c.sharedReadBytes, c.sharedWriteBytes, c.dirReadBytes
}

// CleanTick is one firing of the 5-second delayed-write daemon: dirty data
// older than the writeback delay goes to its servers. The cluster owns the
// daemon's timer (one per ID%5 phase, walking the workstations that share
// it) and calls this at each firing; it schedules nothing.
func (c *Client) CleanTick(now time.Duration) {
	c.ship(c.Cache.Clean(now))
}

// ship sends runs of dirty blocks to their servers and returns the RPC
// latency. On the wire each block is one write RPC, as in Sprite, and the
// latency is theirs summed; the server takes each run in one call. Every
// WriteBack in the system flows through here, so bytesWrittenBack is
// exact.
func (c *Client) ship(wbs []fscache.Writeback) time.Duration {
	var lat time.Duration
	now := c.sim.Now()
	for _, wb := range wbs {
		srv := c.route(wb.File)
		for i := range wb.N {
			lat += c.net.RPCTo(srv.ID(), c.cfg.ID, netsim.FileWrite, wb.BlockBytes(i))
		}
		srv.WriteBack(wb.File, c.cfg.ID, fscache.Run{First: wb.Block, N: int64(wb.N)}, wb.Bytes, now)
		c.bytesWrittenBack += wb.Bytes
		if f := srv.Lookup(wb.File); f != nil {
			c.noteVersion(wb.File, f.Version)
		}
	}
	return lat
}

// noteVersion records v as the version of file that this client's cached
// data matches. The map is made at the first entry, so a workstation that
// never opens a file keeps none.
func (c *Client) noteVersion(file, v uint64) {
	if c.versions == nil {
		c.versions = make(map[uint64]uint64)
	}
	c.versions[file] = v
}

// BytesWrittenBack returns the total bytes this client has shipped to
// servers via writeback RPCs.
func (c *Client) BytesWrittenBack() int64 { return c.bytesWrittenBack }

// maybeGrow lets the file cache claim more memory when full: free pages
// first, then VM pages idle past the 20-minute threshold.
func (c *Client) maybeGrow() {
	if c.cfg.FixedCachePages > 0 || c.Cache.NumBlocks() < c.Cache.Capacity() {
		return
	}
	now := c.sim.Now()
	granted, fromVM := c.Mem.AcquireFS(growChunk, c.VM.IdlePages(now))
	if fromVM > 0 {
		c.VM.DropIdle(fromVM, now)
	}
	if granted > 0 {
		c.Cache.GrowBy(granted)
	}
}

// syncCacheShare shrinks the cache if the VM system claimed pages from it.
func (c *Client) syncCacheShare() {
	target := c.Mem.FSPages()
	if target < c.Cache.Capacity() {
		c.ship(c.Cache.SetCapacity(target, true, c.sim.Now()))
	}
}

// CodeIn implements vm.IO: a code fault goes through the file cache.
func (c *Client) CodeIn(file uint64, offset, n int64, migrated bool) {
	c.pageInViaCache(file, offset, n, migrated)
}

// DataIn implements vm.IO: an initialized-data fault goes through the
// file cache.
func (c *Client) DataIn(file uint64, offset, n int64, migrated bool) {
	c.pageInViaCache(file, offset, n, migrated)
}

// BackingIn implements vm.IO: a backing-file page-in goes straight to the
// server.
func (c *Client) BackingIn(n int64, migrated bool) { c.net.RPC(c.cfg.ID, netsim.PagingRead, n) }

// BackingOut implements vm.IO: a page-out to the backing file goes
// straight to the server.
func (c *Client) BackingOut(n int64, migrated bool) { c.net.RPC(c.cfg.ID, netsim.PagingWrite, n) }

// pageInViaCache services a code or initialized-data fault through the
// file cache (Sprite checks the file cache on these faults).
func (c *Client) pageInViaCache(file uint64, offset, n int64, migrated bool) {
	srv := c.route(file)
	f := srv.Lookup(file)
	if f == nil || offset >= f.Size {
		// Unknown executable image: fault straight from the server.
		c.net.RPCTo(srv.ID(), c.cfg.ID, netsim.PagingRead, n)
		return
	}
	if offset+n > f.Size {
		n = f.Size - offset
	}
	if n <= 0 {
		return
	}
	c.maybeGrow()
	attr := fscache.Attr{Paging: true, Migrated: migrated}
	res := c.Cache.Read(file, offset, n, f.Size, attr, c.sim.Now())
	c.ship(res.Evicted)
	if res.MissBytes > 0 {
		c.net.RPCTo(srv.ID(), c.cfg.ID, netsim.PagingRead, res.MissBytes)
		c.Cache.AddMissBytes(attr, res.MissBytes)
		srv.ServeRuns(file, res.MissRuns, c.sim.Now())
	}
}

func (c *Client) emit(kind trace.Kind, h *handle, file uint64, flags uint8, offset, length, size int64, user, proc int32) {
	rec := trace.Record{
		Time:   c.sim.Now(),
		Kind:   kind,
		Flags:  flags,
		Server: c.route(file).ID(),
		Client: c.cfg.ID,
		User:   user,
		Proc:   proc,
		File:   file,
		Offset: offset,
		Length: length,
		Size:   size,
	}
	if h != nil {
		rec.Handle = h.id
	}
	c.tracer.Emit(rec)
}

func migFlag(migrated bool) uint8 {
	if migrated {
		return trace.FlagMigrated
	}
	return 0
}

// Create makes a new file (dir selects a directory) on the client's home
// server and returns its id.
func (c *Client) Create(user, proc int32, dir, migrated bool) uint64 {
	f := c.home.Create(dir, c.sim.Now())
	c.net.RPCTo(c.home.ID(), c.cfg.ID, netsim.Control, 0)
	var flags uint8 = migFlag(migrated)
	if dir {
		flags |= trace.FlagDirectory
	}
	c.emit(trace.KindCreate, nil, f.ID, flags, 0, 0, 0, user, proc)
	return f.ID
}

// Open opens file for the given access modes and returns a handle id and
// the open latency.
func (c *Client) Open(user, proc int32, file uint64, read, write, migrated bool) (uint64, time.Duration, error) {
	srv := c.route(file)
	lat := c.maybeRecover(srv) // lazy restart detection before new state lands
	now := c.sim.Now()
	reply, err := srv.Open(file, c.cfg.ID, write, now)
	if err != nil {
		return 0, lat, err
	}
	lat += c.net.RPCTo(srv.ID(), c.cfg.ID, netsim.Control, 0)

	// Consistency action: recall dirty data from the last writer. The
	// polling scheme has no recall machinery — stale data simply lingers.
	if c.cfg.Consistency == ConsistencySprite &&
		reply.RecallFrom != server.NoClient && reply.RecallFrom != c.cfg.ID && c.coord != nil {
		c.coord.RecallFrom(reply.RecallFrom, file)
		if f := srv.Lookup(file); f != nil {
			reply.Version = f.Version
			reply.Size = f.Size
		}
	}
	// Consistency action: write-sharing began; other clients flush+bypass.
	if c.cfg.Consistency == ConsistencySprite && len(reply.DisableOn) > 0 && c.coord != nil {
		c.coord.DisableCaching(reply.DisableOn, file)
	}

	// Version check: flush stale cached data (Sprite only — the polling
	// scheme revalidates lazily on access instead).
	if c.cfg.Consistency == ConsistencySprite {
		if v, ok := c.versions[file]; ok && v != reply.Version {
			if c.Cache.Invalidate(file) > 0 {
				srv.NoteInvalidation()
			}
		}
		c.noteVersion(file, reply.Version)
	}

	c.nextHandle++
	h := c.takeHandle()
	*h = handle{
		id:       uint64(c.cfg.ID)<<40 | c.nextHandle,
		file:     file,
		read:     read,
		write:    write,
		user:     user,
		proc:     proc,
		migrated: migrated,
		shared:   !reply.Cacheable,
	}
	if c.handles == nil {
		c.handles = make(map[uint64]*handle)
	}
	c.handles[h.id] = h

	flags := migFlag(migrated)
	if read {
		flags |= trace.FlagReadMode
	}
	if write {
		flags |= trace.FlagWriteMode
	}
	if f := srv.Lookup(file); f != nil && f.Directory {
		flags |= trace.FlagDirectory
	}
	c.emit(trace.KindOpen, h, file, flags, 0, 0, reply.Size, user, proc)
	return h.id, lat, nil
}

// Read transfers up to n bytes sequentially from the handle's position.
// It returns the bytes actually read and the I/O latency incurred.
func (c *Client) Read(hid uint64, n int64) (int64, time.Duration) {
	h := c.handles[hid]
	if h == nil || !h.read || n <= 0 {
		return 0, 0
	}
	srv := c.route(h.file)
	f := srv.Lookup(h.file)
	if f == nil {
		return 0, 0
	}
	if avail := f.Size - h.pos; n > avail {
		n = avail
	}
	if n <= 0 {
		return 0, 0
	}
	now := c.sim.Now()
	var lat time.Duration
	var flags = migFlag(h.migrated)
	if f.Directory {
		// Directory reads bypass the cache and are accounted separately.
		lat = c.net.RPCTo(srv.ID(), c.cfg.ID, netsim.DirRead, n)
		c.dirReadBytes += n
		c.emit(trace.KindDirRead, h, h.file, flags|trace.FlagDirectory, h.pos, n, f.Size, h.user, h.proc)
	} else if f.Uncacheable() && c.cfg.Consistency == ConsistencySprite {
		lat = c.net.RPCTo(srv.ID(), c.cfg.ID, netsim.SharedRead, n)
		lat += srv.ServeSpan(h.file, h.pos, n, now)
		c.sharedReadBytes += n
		c.emit(trace.KindRead, h, h.file, flags|trace.FlagShared, h.pos, n, f.Size, h.user, h.proc)
	} else {
		if c.cfg.Consistency == ConsistencyPoll {
			lat += c.pollValidate(h.file, f, now)
		}
		c.maybeGrow()
		attr := fscache.Attr{Migrated: h.migrated}
		res := c.Cache.Read(h.file, h.pos, n, f.Size, attr, now)
		c.ship(res.Evicted)
		if res.MissBytes > 0 {
			lat += c.net.RPCTo(srv.ID(), c.cfg.ID, netsim.FileRead, res.MissBytes)
			c.Cache.AddMissBytes(attr, res.MissBytes)
			lat += srv.ServeRuns(h.file, res.MissRuns, now)
		}
		// Omniscient stale accounting: under the polling scheme, bytes
		// served from the cache while another client's newer version sits
		// at the server are exactly the errors Table 11 estimates.
		if c.cfg.Consistency == ConsistencyPoll && c.versions[h.file] != f.Version {
			if served := n - res.MissBytes; served > 0 {
				c.staleReads++
				c.staleBytes += served
			}
		}
		c.emit(trace.KindRead, h, h.file, flags, h.pos, n, f.Size, h.user, h.proc)
	}
	h.pos += n
	return n, lat
}

// ReadAt repositions the handle to off without charging a seek RPC, then
// reads n bytes. Trace replay uses it to pin each transfer at its recorded
// offset: the source run already logged any repositions as separate
// records, so re-deriving the position here would double-count seeks.
func (c *Client) ReadAt(hid uint64, off, n int64) (int64, time.Duration) {
	h := c.handles[hid]
	if h == nil || off < 0 {
		return 0, 0
	}
	h.pos = off
	return c.Read(hid, n)
}

// WriteAt repositions the handle to off without charging a seek RPC, then
// writes n bytes (the replay counterpart of ReadAt).
func (c *Client) WriteAt(hid uint64, off, n int64) time.Duration {
	h := c.handles[hid]
	if h == nil || off < 0 {
		return 0
	}
	h.pos = off
	return c.Write(hid, n)
}

// Write transfers n bytes sequentially at the handle's position and
// returns the latency incurred (zero for fully cached writes).
func (c *Client) Write(hid uint64, n int64) time.Duration {
	h := c.handles[hid]
	if h == nil || !h.write || n <= 0 {
		return 0
	}
	srv := c.route(h.file)
	f := srv.Lookup(h.file)
	if f == nil {
		return 0
	}
	now := c.sim.Now()
	var lat time.Duration
	flags := migFlag(h.migrated)
	if f.Uncacheable() && !f.Directory && c.cfg.Consistency == ConsistencySprite {
		lat = c.net.RPCTo(srv.ID(), c.cfg.ID, netsim.SharedWrite, n)
		srv.AcceptSpan(h.file, h.pos, n, now)
		c.sharedWriteBytes += n
		srv.Write(h.file, c.cfg.ID, h.pos, n, true, now)
		c.noteVersion(h.file, f.Version)
		c.emit(trace.KindWrite, h, h.file, flags|trace.FlagShared, h.pos, n, f.Size, h.user, h.proc)
	} else {
		c.maybeGrow()
		attr := fscache.Attr{Migrated: h.migrated}
		res := c.Cache.Write(h.file, h.pos, n, f.Size, attr, now)
		c.ship(res.Evicted)
		if res.FetchBytes > 0 {
			lat = c.net.RPCTo(srv.ID(), c.cfg.ID, netsim.FileRead, res.FetchBytes)
			lat += srv.ServeRuns(h.file, res.FetchRuns, now)
		}
		srv.Grow(h.file, h.pos+n, now)
		if c.cfg.Consistency == ConsistencyPoll {
			// "New data is written through to the server almost
			// immediately in order to make it available to other clients."
			lat += c.ship(c.Cache.Fsync(h.file, now))
			if cur := srv.Lookup(h.file); cur != nil {
				c.noteVersion(h.file, cur.Version)
			}
			c.validated[h.file] = now
		}
		c.emit(trace.KindWrite, h, h.file, flags, h.pos, n, f.Size, h.user, h.proc)
	}
	h.pos += n
	h.wrote = true
	return lat
}

// pollValidate implements the NFS-style lazy revalidation: on the first
// access after the validity window expires, ask the server for the file's
// current version (one control RPC) and flush the cached copy if stale.
func (c *Client) pollValidate(file uint64, f *server.File, now time.Duration) time.Duration {
	last, seen := c.validated[file]
	if seen && now-last < c.cfg.PollInterval {
		return 0
	}
	c.pollRPCs++
	lat := c.net.RPCTo(c.route(file).ID(), c.cfg.ID, netsim.Control, 0)
	if c.versions[file] != f.Version {
		c.Cache.Invalidate(file)
		c.noteVersion(file, f.Version)
	}
	c.validated[file] = now
	return lat
}

// Seek repositions the handle. Sprite logged repositions at the server, so
// an extra control RPC is charged, as the paper describes.
func (c *Client) Seek(hid uint64, pos int64) time.Duration {
	h := c.handles[hid]
	if h == nil || pos < 0 {
		return 0
	}
	lat := c.net.RPCTo(c.route(h.file).ID(), c.cfg.ID, netsim.Control, 0)
	h.pos = pos
	f := c.route(h.file).Lookup(h.file)
	var size int64
	if f != nil {
		size = f.Size
	}
	c.emit(trace.KindReposition, h, h.file, migFlag(h.migrated), pos, 0, size, h.user, h.proc)
	return lat
}

// Fsync forces the handle's dirty data to the server synchronously.
func (c *Client) Fsync(hid uint64) time.Duration {
	h := c.handles[hid]
	if h == nil {
		return 0
	}
	return c.ship(c.Cache.Fsync(h.file, c.sim.Now()))
}

// HasHandle reports whether hid names a live open-instance on this
// client. The live RPC executor uses it to distinguish "unknown handle"
// from legitimately free operations (a fully cached write also reports
// zero latency).
func (c *Client) HasHandle(hid uint64) bool {
	_, ok := c.handles[hid]
	return ok
}

// Close releases the handle.
func (c *Client) Close(hid uint64) (time.Duration, error) {
	h := c.handles[hid]
	if h == nil {
		return 0, fmt.Errorf("client %d: close of unknown handle %#x", c.cfg.ID, hid)
	}
	srv := c.route(h.file)
	// Lazy restart detection must run while the handle is still registered
	// locally, or the recovery re-registration misses the very open this
	// close is about to balance.
	lat := c.maybeRecover(srv)
	delete(c.handles, hid)
	dirty := h.wrote && c.Cache.FileDirty(h.file)
	if err := srv.Close(h.file, c.cfg.ID, h.write, dirty, c.sim.Now()); err != nil {
		return lat, err
	}
	lat += c.net.RPCTo(srv.ID(), c.cfg.ID, netsim.Control, 0)
	var size int64
	flags := migFlag(h.migrated)
	if h.read {
		flags |= trace.FlagReadMode
	}
	if h.write {
		flags |= trace.FlagWriteMode
	}
	if h.shared {
		flags |= trace.FlagShared
	}
	if f := srv.Lookup(h.file); f != nil {
		size = f.Size
		if f.Directory {
			flags |= trace.FlagDirectory
		}
	}
	c.emit(trace.KindClose, h, h.file, flags, h.pos, 0, size, h.user, h.proc)
	c.hFree = append(c.hFree, h)
	return lat, nil
}

// takeHandle pops a recycled handle struct or allocates a fresh one; the
// caller overwrites every field. Handles dropped by Crash are simply
// garbage-collected rather than recycled.
func (c *Client) takeHandle() *handle {
	if n := len(c.hFree); n > 0 {
		h := c.hFree[n-1]
		c.hFree = c.hFree[:n-1]
		return h
	}
	return &handle{}
}

// Delete removes the file cluster-wide. Dirty cached bytes are discarded
// (the delayed-write savings), and the deletion is logged for the
// lifetime analyses.
func (c *Client) Delete(user, proc int32, file uint64, migrated bool) {
	srv := c.route(file)
	f := srv.Delete(file, c.sim.Now())
	c.Cache.Delete(file)
	delete(c.versions, file)
	c.net.RPCTo(srv.ID(), c.cfg.ID, netsim.Control, 0)
	var size int64
	var oldest, newest time.Duration
	var flags = migFlag(migrated)
	if f != nil {
		size = f.Size
		oldest = f.OldestByte
		newest = f.LastWrite
		if f.Directory {
			flags |= trace.FlagDirectory
		}
	}
	// Offset carries the creation time of the oldest byte and Length the
	// newest byte's write time, so the lifetime analysis (Figure 4) has
	// both endpoints.
	c.emit(trace.KindDelete, nil, file, flags, int64(oldest), int64(newest), size, user, proc)
}

// Truncate cuts the file to zero length (counted as a delete for
// lifetimes, per the paper).
func (c *Client) Truncate(user, proc int32, file uint64, migrated bool) {
	srv := c.route(file)
	f := srv.Lookup(file)
	var size int64
	var oldest, newest time.Duration
	if f != nil {
		size = f.Size
		oldest = f.OldestByte
		newest = f.LastWrite
	}
	srv.Truncate(file, c.sim.Now())
	c.Cache.Truncate(file, 0)
	c.net.RPCTo(srv.ID(), c.cfg.ID, netsim.Control, 0)
	c.emit(trace.KindTruncate, nil, file, migFlag(migrated), int64(oldest), int64(newest), size, user, proc)
}

// --- Consistency callbacks (invoked by the cluster's Coordinator) ---

// FlushForRecall writes all dirty data for file back to the server (the
// server recalled it for another client's open).
func (c *Client) FlushForRecall(file uint64) {
	c.ship(c.Cache.Recall(file, c.sim.Now()))
}

// DisableFor flushes and drops cached data for file and marks any local
// handles as bypassing (concurrent write-sharing started elsewhere).
func (c *Client) DisableFor(file uint64) {
	c.FlushForRecall(file)
	c.Cache.Invalidate(file)
	// order-free: marks every handle on the file.
	for _, h := range c.handles {
		if h.file == file {
			h.shared = true
		}
	}
}

// --- Process/VM wrappers ---

// ExecProcess starts a process image on this workstation.
func (c *Client) ExecProcess(pid int32, execFile uint64, codePages, dataPages, stackPages int, migrated bool) {
	c.VM.Start(pid, execFile, codePages, dataPages, stackPages, migrated, c.sim.Now())
	c.syncCacheShare()
}

// TouchProcess marks a process active, growing its heap by growHeap pages.
func (c *Client) TouchProcess(pid int32, growHeap int) {
	c.VM.Touch(pid, growHeap, c.sim.Now())
	c.syncCacheShare()
}

// ExitProcess tears the process down.
func (c *Client) ExitProcess(pid int32) {
	c.VM.Exit(pid, c.sim.Now())
}

// EvictMigrated flushes a migrated process's pages (owner returned).
func (c *Client) EvictMigrated(pid int32) {
	c.VM.EvictProcess(pid, c.sim.Now())
}

// FileSize returns the current size of a file, or 0 if it does not exist.
func (c *Client) FileSize(file uint64) int64 {
	if f := c.route(file).Lookup(file); f != nil {
		return f.Size
	}
	return 0
}
