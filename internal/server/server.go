// Package server implements the Sprite file server's role in the study:
// the authoritative name space, per-file open state, and the three
// consistency mechanisms of Section 5 — version timestamps handed out at
// open (clients flush stale cached data), recall of dirty data from the
// last writer, and disabling of client caching under concurrent
// write-sharing. The server counts every consistency action, which is the
// instrumentation behind Table 10.
//
// Naming operations (opens, closes, deletes) all pass through the server,
// which is why the paper could collect a system-wide trace on just four
// machines; the cluster layer emits trace records at exactly these points.
package server

import (
	"fmt"
	"math"
	"time"

	"spritefs/internal/fscache"
)

// NoClient marks the absence of a client in last-writer tracking.
const NoClient int32 = -1

// File is one file's authoritative state.
type File struct {
	ID         uint64
	Size       int64
	Version    uint64 // bumped on every write reaching the server
	Created    time.Duration
	OldestByte time.Duration // creation time of current oldest byte (for lifetime accounting)
	LastWrite  time.Duration

	// openers holds one entry per client with the file open, in arrival
	// order (consumers that need a deterministic order sort explicitly).
	// Entries with zero counts are removed, so len(openers) is the number
	// of opening clients. A compact slice replaces the previous pair of
	// count maps: nearly every file has zero or one opener, and two map
	// allocations per Create dominated the server's allocation profile.
	openers []opener

	// lastWriter is the client that most recently wrote the file and may
	// still hold dirty data in its cache. The server does not know whether
	// the delayed-write daemon has already flushed it, so recalls are an
	// upper bound — exactly as the paper notes.
	lastWriter int32

	// uncacheable is set while the file undergoes concurrent
	// write-sharing; all reads and writes pass through to the server.
	uncacheable bool

	// Directory sits here, in lastWriter's word, so that the struct is 80
	// bytes and not 88 rounded up to the allocator's 96.
	Directory bool
}

// opener is one client's open registration on a file.
type opener struct {
	client int32
	reads  int32 // open-for-read count
	writes int32 // open-for-write count
}

// opener returns the registration entry for client, or nil.
func (f *File) opener(client int32) *opener {
	for i := range f.openers {
		if f.openers[i].client == client {
			return &f.openers[i]
		}
	}
	return nil
}

// removeOpener drops client's (zeroed) registration entry.
func (f *File) removeOpener(client int32) {
	for i := range f.openers {
		if f.openers[i].client == client {
			last := len(f.openers) - 1
			f.openers[i] = f.openers[last]
			f.openers = f.openers[:last]
			return
		}
	}
}

// Openers returns the number of clients with the file open.
func (f *File) Openers() int { return len(f.openers) }

// WriterCount returns the number of clients with the file open for writing.
func (f *File) WriterCount() int {
	n := 0
	for i := range f.openers {
		if f.openers[i].writes > 0 {
			n++
		}
	}
	return n
}

// Uncacheable reports whether client caching is currently disabled.
func (f *File) Uncacheable() bool { return f.uncacheable }

// Stats holds the consistency-action counters for Table 10 plus name-space
// bookkeeping and the crash/recovery counters of the fault study.
type Stats struct {
	FileOpens   int64 // opens of regular files (Table 10's denominator)
	DirOpens    int64
	Creates     int64
	Deletes     int64
	Truncates   int64
	Recalls     int64 // opens that triggered a dirty-data recall
	CWSEvents   int64 // opens that initiated concurrent write-sharing
	CacheOffOps int64 // reads/writes passed through while uncacheable
	Invalids    int64 // stale-version invalidations instructed to clients

	// WriteBackBytes is every byte accepted via WriteBack — the server
	// side of the conservation invariant the fault harness checks against
	// the clients' shipped-byte counters.
	WriteBackBytes int64

	// Crash/recovery bookkeeping (see crash.go).
	Crashes          int64 // times this server crashed
	OpensLostInCrash int64 // open registrations discarded by crashes
	RecoveryOpens    int64 // handle re-registrations served after restarts
	RecoveryCWS      int64 // write-sharing re-detected during recovery
	// MaxRecoveryTime is the longest time-to-reconsistency observed: from
	// crash until the slowest client finished the recovery protocol.
	MaxRecoveryTime time.Duration
}

// Server is one file server.
type Server struct {
	id     int16
	files  fileTable
	nextID uint64
	st     Stats

	// epoch counts restarts; clients compare it against the epoch they
	// last saw to detect that their open registrations died with the
	// server's volatile state.
	epoch uint64
	// down is true between Crash and Restart. The injector restarts
	// logically at the crash instant (the outage surfaces as RPC stall
	// latency), so a down window is only observable when Crash and
	// Restart are driven separately.
	down bool

	// Store models the server's memory cache and disk when attached
	// (AttachStorage); nil means storage is not modeled.
	Store *Storage
}

// AttachStorage gives the server a memory cache of the given capacity (in
// 4 KB blocks) backed by a modeled disk.
func (s *Server) AttachStorage(capacityBlocks int) {
	s.Store = NewStorage(capacityBlocks)
}

// ServeRuns serves a client's block fetches of one file — the runs its
// cache missed — through the server cache, returning any disk time
// incurred. A no-op without attached storage or for an unknown file.
func (s *Server) ServeRuns(id uint64, runs []fscache.Run, now time.Duration) time.Duration {
	if s.Store == nil || len(runs) == 0 {
		return 0
	}
	f := s.files.lookup(id)
	if f == nil {
		return 0
	}
	var d time.Duration
	for _, r := range runs {
		d += s.Store.ServeRun(id, r, f.Size, now)
	}
	return d
}

// ServeSpan serves a pass-through read (uncacheable file): the blocks the
// byte range touches, as one run.
func (s *Server) ServeSpan(id uint64, offset, length int64, now time.Duration) time.Duration {
	if length <= 0 {
		return 0
	}
	first, last := offset/fscache.BlockSize, (offset+length-1)/fscache.BlockSize
	return s.ServeRuns(id, []fscache.Run{{First: first, N: last - first + 1}}, now)
}

// AcceptSpan takes a pass-through write into the server cache: the blocks
// the byte range touches, as one run, each from its start.
func (s *Server) AcceptSpan(id uint64, offset, length int64, now time.Duration) {
	if s.Store == nil || length <= 0 {
		return
	}
	first, last := offset/fscache.BlockSize, (offset+length-1)/fscache.BlockSize
	s.Store.AcceptWrite(id, fscache.Run{First: first, N: last - first + 1}, offset+length-first*fscache.BlockSize, now)
}

// A file id holds its home server's id in the top 16 bits and a sequence
// number, unique on that server, in the low 48, so ids are unique across
// servers and say where a file lives. FileID, HomeOf and SeqOf are the one
// owner of that layout.
const seqBits = 48

// FileID returns the id of sequence number seq (taken modulo 2^48) on
// server srv.
func FileID(srv int16, seq uint64) uint64 {
	return uint64(uint16(srv))<<seqBits | seq&(1<<seqBits-1)
}

// HomeOf returns the server an id's top bits name. An id whose top bit is
// set names a negative one, which no server has.
func HomeOf(id uint64) int16 { return int16(id >> seqBits) }

// SeqOf returns an id's sequence number on its home server.
func SeqOf(id uint64) uint64 { return id & (1<<seqBits - 1) }

// New returns an empty server with the given id; the files it creates are
// homed on it (FileID).
func New(id int16) *Server {
	if id < 0 {
		panic("server: negative id")
	}
	return &Server{
		id:     id,
		files:  fileTable{home: id},
		nextID: FileID(id, 1),
	}
}

// ID returns the server id.
func (s *Server) ID() int16 { return s.id }

// Stats returns a snapshot of the counters.
func (s *Server) Stats() Stats { return s.st }

// NumFiles returns the number of live files.
func (s *Server) NumFiles() int { return s.files.n }

// Lookup returns the file with the given id, or nil, waking a dormant
// file. The pointer stays valid until the file is deleted.
func (s *Server) Lookup(id uint64) *File { return s.files.lookup(id) }

// Create makes a new file (or directory) and returns it.
func (s *Server) Create(directory bool, now time.Duration) *File {
	f := s.files.add(s.newID())
	f.Directory = directory
	f.Created = now
	f.OldestByte = now
	f.LastWrite = now
	return f
}

// BootstrapFile makes one file of the populated name space a run starts
// from, created at time 0 with the given size, and returns its id. It
// counts a create and leaves the same file as Create(directory, 0)
// followed by Grow(id, size, 0). A regular file stays dormant (see the
// file table) until something first looks it up, since a run touches few
// of them; a directory, a file above math.MaxInt32 bytes and an id the
// index cannot reach get their File at once.
func (s *Server) BootstrapFile(size int64, directory bool) uint64 {
	id := s.newID()
	size = max(size, 0)
	if directory || size > math.MaxInt32 || !s.files.addDormant(id, int32(size)) {
		f := s.files.add(id)
		f.Size = size
		f.Directory = directory
	}
	return id
}

// newID takes the next id Create hands out and counts a create.
func (s *Server) newID() uint64 {
	// Skip over ids claimed by Install so replay bootstrap and live
	// creation can coexist on one server.
	for s.files.present(s.nextID) {
		s.nextID++
	}
	id := s.nextID
	s.nextID++
	s.st.Creates++
	return id
}

// Install registers a file under a caller-chosen id. Trace replay uses it
// to materialize the files a captured trace references: the replayed
// cluster must reuse the original file ids so routing, client caches and
// consistency state all line up with the source run. Installing an id that
// already exists returns the existing file unchanged. Unlike Create it is
// bootstrap, not workload, so it does not count toward the create counters.
func (s *Server) Install(id uint64, size int64, directory bool, now time.Duration) *File {
	if f := s.files.lookup(id); f != nil {
		return f
	}
	f := s.files.add(id)
	f.Size = size
	f.Directory = directory
	f.Created = now
	f.OldestByte = now
	f.LastWrite = now
	return f
}

// OpenReply tells the opening client what consistency actions apply.
type OpenReply struct {
	Version uint64
	Size    int64
	// Cacheable is false when the file is under concurrent write-sharing;
	// the client must bypass its cache for this file.
	Cacheable bool
	// RecallFrom names a client whose dirty data the server must recall
	// before this open proceeds (NoClient if none).
	RecallFrom int32
	// DisableOn lists clients that were already caching the file and must
	// now flush and bypass (set when this open initiates write-sharing).
	DisableOn []int32
	// StartedCWS reports that this open initiated concurrent write-sharing.
	StartedCWS bool
}

// Open registers an open of file id by client. write selects write mode.
// It returns the consistency actions the cluster must carry out. Opening
// a missing file is an error.
func (s *Server) Open(id uint64, client int32, write bool, now time.Duration) (OpenReply, error) {
	if s.down {
		return OpenReply{}, ErrDown
	}
	f := s.files.lookup(id)
	if f == nil {
		return OpenReply{}, fmt.Errorf("server %d: open of unknown file %#x", s.id, id)
	}
	reply := OpenReply{Version: f.Version, Size: f.Size, Cacheable: true, RecallFrom: NoClient}
	if f.Directory {
		s.st.DirOpens++
		// Directories are never cached on clients (Sprite avoids the
		// consistency problem entirely).
		reply.Cacheable = false
		f.addOpen(client, write)
		return reply, nil
	}
	s.st.FileOpens++

	// Dirty-data recall: another client may hold newer data than we do.
	if f.lastWriter != NoClient && f.lastWriter != client {
		reply.RecallFrom = f.lastWriter
		f.lastWriter = NoClient
		f.Version++ // recalled data becomes the new authoritative version
		reply.Version = f.Version
		s.st.Recalls++
	}

	wasShared := f.uncacheable
	f.addOpen(client, write)

	// Concurrent write-sharing: open on >=2 clients with >=1 writer.
	if !wasShared && f.Openers() >= 2 && f.WriterCount() >= 1 {
		f.uncacheable = true
		reply.StartedCWS = true
		s.st.CWSEvents++
		// disableList sorts: map iteration order is randomized, and the
		// flush/disable sequence — and therefore every downstream counter —
		// must be a pure function of the seed (the repo's bit-for-bit
		// determinism claim).
		reply.DisableOn = f.disableList(client)
	}
	if f.uncacheable {
		reply.Cacheable = false
	}
	return reply, nil
}

func (f *File) addOpen(client int32, write bool) {
	o := f.opener(client)
	if o == nil {
		f.openers = append(f.openers, opener{client: client})
		o = &f.openers[len(f.openers)-1]
	}
	if write {
		o.writes++
	} else {
		o.reads++
	}
}

// Close unregisters an open. dirty reports whether the client holds dirty
// data for the file at close (it becomes the last writer). In Sprite a
// file stays uncacheable until it has been closed by all clients.
func (s *Server) Close(id uint64, client int32, write, dirty bool, now time.Duration) error {
	if s.down {
		return ErrDown
	}
	f := s.files.lookup(id)
	if f == nil {
		// The file was deleted while open; Sprite allows this.
		return nil
	}
	o := f.opener(client)
	if o == nil || (write && o.writes <= 0) || (!write && o.reads <= 0) {
		return fmt.Errorf("server %d: close without open (file %#x client %d write %v)", s.id, id, client, write)
	}
	if write {
		o.writes--
	} else {
		o.reads--
	}
	if o.reads == 0 && o.writes == 0 {
		f.removeOpener(client)
	}
	if write && dirty && !f.uncacheable {
		f.lastWriter = client
	}
	if f.uncacheable && f.Openers() == 0 {
		f.uncacheable = false
	}
	return nil
}

// Write applies a write's metadata at the server: size growth and version
// bump. through reports a pass-through (uncacheable) write as opposed to a
// delayed writeback.
func (s *Server) Write(id uint64, client int32, offset, length int64, through bool, now time.Duration) {
	f := s.files.lookup(id)
	if f == nil {
		return
	}
	if end := offset + length; end > f.Size {
		f.Size = end
	}
	f.Version++
	f.LastWrite = now
	if through {
		s.st.CacheOffOps++
		f.lastWriter = NoClient
	}
}

// WriteBack records a run of delayed writeback blocks arriving from a
// client's cache, bytes in all (fscache.Writeback's shape); each block is
// one write, a new version of the file. It does not clear last-writer
// state: the server does not track whether the client has finished
// flushing (the paper's upper-bound caveat). The blocks land in the server
// cache (when storage is attached) and reach the disk after the server's
// own 30-second delay.
func (s *Server) WriteBack(id uint64, client int32, run fscache.Run, bytes int64, now time.Duration) {
	// Count before the deleted-file early-out: the client counted these
	// bytes as shipped, and the conservation invariant the fault harness
	// checks compares exactly these two counters.
	s.st.WriteBackBytes += bytes
	f := s.files.lookup(id)
	if f == nil {
		return
	}
	f.Version += uint64(run.N)
	f.LastWrite = now
	if s.Store != nil {
		s.Store.AcceptWrite(id, run, bytes, now)
	}
}

// Grow is used by the client layer on every cached application write: the
// real server learns the new size at writeback or close, but the simulator
// keeps authoritative sizes (and last-write times, for the lifetime
// analyses) eagerly for simplicity.
func (s *Server) Grow(id uint64, newSize int64, now time.Duration) {
	f := s.files.lookup(id)
	if f == nil {
		return
	}
	if newSize > f.Size {
		f.Size = newSize
	}
	f.LastWrite = now
}

// Delete removes the file. It returns the file's final state for lifetime
// accounting (nil if unknown). The returned File is recycled: it is valid
// only until this server's next Create, Install or wake of a dormant file
// (any lookup may wake one), so callers must read what they need at once
// (every caller consumes it on the spot).
func (s *Server) Delete(id uint64, now time.Duration) *File {
	f := s.files.remove(id)
	if f == nil {
		return nil
	}
	s.st.Deletes++
	if s.Store != nil {
		s.Store.Drop(id)
	}
	return f
}

// Truncate cuts the file to zero length. The paper treats truncation to
// zero as deletion for lifetime purposes; the cluster layer records both.
func (s *Server) Truncate(id uint64, now time.Duration) *File {
	f := s.files.lookup(id)
	if f == nil {
		return nil
	}
	f.Size = 0
	f.Version++
	f.OldestByte = now
	f.LastWrite = now
	s.st.Truncates++
	return f
}

// NoteInvalidation counts a client invalidating stale cached data after an
// open returned a newer version.
func (s *Server) NoteInvalidation() { s.st.Invalids++ }
