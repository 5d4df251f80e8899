// Package traceio is the read side of the trace tool-chain, following the
// replay-trace taxonomy's capture→normalize→replay/analyze pipeline: it is
// how trace files — this reproduction's own captures or somebody else's —
// become the one merged trace.Record stream that replay re-executes and
// core.AnalyzeTrace analyzes.
//
// Source is that path: every tool opens its inputs through Source.Open,
// which sniffs native files (binary or text, per file), runs foreign dumps
// through an importer, and k-way merges the lot with trace.Merge. Nothing
// else in the repository picks an importer by name or parses a mapping
// spec.
//
// Two importers are provided — a generic CSV/TSV I/O-trace adapter with a
// configurable column mapping (SNIA-style dumps) and an strace-like
// syscall-log adapter — sharing one synthesis core that interns paths to
// file IDs, infers open/close brackets around orphaned reads and writes,
// and normalizes timestamps to a zero-based virtual timebase. Imported
// streams are stamped with trace header version 2 so trace.Merge refuses
// to interleave them with native captures.
package traceio

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"time"

	"spritefs/internal/server"
	"spritefs/internal/trace"
)

// ImportVersion is the trace header version stamped on imported streams.
const ImportVersion = uint16(2)

// Options control the shared import pipeline.
type Options struct {
	// NumServers is the number of file servers imported paths are spread
	// across (the top 16 bits of the file ID route records to servers,
	// exactly as in the live cluster). Default 4.
	NumServers int
	// Clients caps the number of distinct workstations synthesized for
	// formats that identify only processes, not machines (strace).
	// Default 8. Formats that carry a client column ignore this.
	Clients int
}

func (o Options) withDefaults() Options {
	if o.NumServers <= 0 {
		o.NumServers = 4
	}
	if o.NumServers > 1<<15 {
		o.NumServers = 1 << 15
	}
	if o.Clients <= 0 {
		o.Clients = 8
	}
	return o
}

// ImportReport summarizes what an importer did and inferred, so the
// operator can judge how much of the resulting stream is synthesized
// scaffolding versus captured fact.
type ImportReport struct {
	Rows        int // input rows/lines seen (excluding blank/comment)
	Malformed   int // rows skipped as unparseable
	Ignored     int // rows parsed but not representable (untraced fds, unknown ops)
	Records     int // native records emitted
	Files       int // distinct files interned
	Clients     int // distinct workstations
	SynthOpens  int // opens synthesized around orphaned reads/writes
	SynthCloses int // closes synthesized for handles still open at EOF
	Reordered   int // events that arrived out of timestamp order
	Duration    time.Duration
	Notes       []string // first few skip diagnostics
}

// String renders the report as an aligned key: value block.
func (r *ImportReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "rows parsed:        %d (%d malformed, %d ignored)\n", r.Rows, r.Malformed, r.Ignored)
	fmt.Fprintf(&b, "records emitted:    %d\n", r.Records)
	fmt.Fprintf(&b, "files interned:     %d\n", r.Files)
	fmt.Fprintf(&b, "workstations:       %d\n", r.Clients)
	fmt.Fprintf(&b, "synthesized opens:  %d\n", r.SynthOpens)
	fmt.Fprintf(&b, "synthesized closes: %d\n", r.SynthCloses)
	fmt.Fprintf(&b, "reordered events:   %d\n", r.Reordered)
	fmt.Fprintf(&b, "trace duration:     %s\n", r.Duration)
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// note records a skip diagnostic, keeping only the first few.
func (r *ImportReport) note(format string, args ...any) {
	const maxNotes = 8
	if len(r.Notes) < maxNotes {
		r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
	} else if len(r.Notes) == maxNotes {
		r.Notes = append(r.Notes, "... further diagnostics suppressed")
	}
}

// event is one parsed foreign-trace row, before record synthesis.
type event struct {
	time   time.Duration
	client int32
	user   int32
	proc   int32
	kind   trace.Kind
	flags  uint8 // open modes / directory flag
	path   string
	offset int64 // -1 = implicit sequential (use the handle's position)
	length int64
	size   int64 // size hint, 0 if unknown
	seq    int   // input order, the tie-break under equal timestamps
}

// builder is the shared synthesis core: path→file-ID interning, handle
// inference, and time normalization.
type builder struct {
	opt     Options
	rep     *ImportReport
	files   map[string]uint64 // path → file ID
	sizes   map[uint64]int64  // file ID → running max extent
	nextSeq []uint64          // per-server file sequence numbers
	open    map[openKey]*openState
	nextH   uint64
	out     []trace.Record
}

type openKey struct {
	client int32
	proc   int32
	file   uint64
}

type openState struct {
	key    openKey
	handle uint64
	pos    int64
	dir    bool
}

func newBuilder(opt Options, rep *ImportReport) *builder {
	return &builder{
		opt:     opt,
		rep:     rep,
		files:   make(map[string]uint64),
		sizes:   make(map[uint64]int64),
		nextSeq: make([]uint64, opt.NumServers),
		open:    make(map[openKey]*openState),
		nextH:   1,
	}
}

// intern maps a path to a stable file ID. The owning server is the FNV-1a
// hash of the cleaned path modulo the server count, mirroring how the live
// cluster spreads its name space; the low 48 bits are a per-server
// sequence number, so IDs are dense and deterministic in first-appearance
// order.
func (b *builder) intern(path string) uint64 {
	path = cleanPath(path)
	if id, ok := b.files[path]; ok {
		return id
	}
	h := fnv.New32a()
	h.Write([]byte(path))
	srv := uint64(h.Sum32()) % uint64(b.opt.NumServers)
	b.nextSeq[srv]++
	id := server.FileID(int16(srv), b.nextSeq[srv])
	b.files[path] = id
	return id
}

// cleanPath canonicalizes separators and strips trailing slashes so
// "/a/b/" and "/a/b" intern to the same file.
func cleanPath(p string) string {
	p = strings.TrimSpace(p)
	for len(p) > 1 && strings.HasSuffix(p, "/") {
		p = p[:len(p)-1]
	}
	if p == "" {
		p = "/"
	}
	return p
}

// build runs the synthesis pass: sort parsed events into timestamp order
// (stable, so equal stamps keep input order), shift the timebase to zero,
// then emit native records with inferred open/close brackets.
func (b *builder) build(events []event) ([]trace.Record, error) {
	if len(events) == 0 {
		if b.rep.Rows == 0 {
			return nil, fmt.Errorf("traceio: empty input")
		}
		return nil, fmt.Errorf("traceio: no usable events in %d rows (%d malformed, %d ignored)",
			b.rep.Rows, b.rep.Malformed, b.rep.Ignored)
	}
	for i := 1; i < len(events); i++ {
		if events[i].time < events[i-1].time {
			b.rep.Reordered++
		}
	}
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].time != events[j].time {
			return events[i].time < events[j].time
		}
		return events[i].seq < events[j].seq
	})
	base := events[0].time
	for i := range events {
		events[i].time -= base
	}
	for i := range events {
		b.emit(&events[i])
	}
	// Handles still open at end-of-trace get a synthesized close at the
	// final timestamp, in deterministic (client, proc, file) order.
	last := events[len(events)-1].time
	states := make([]*openState, 0, len(b.open))
	// order-free: collected, then sorted.
	for _, st := range b.open {
		states = append(states, st)
	}
	sort.Slice(states, func(i, j int) bool {
		a, c := states[i].key, states[j].key
		if a.client != c.client {
			return a.client < c.client
		}
		if a.proc != c.proc {
			return a.proc < c.proc
		}
		return a.file < c.file
	})
	for _, st := range states {
		b.closeState(st, last)
		b.rep.SynthCloses++
	}
	b.rep.Records = len(b.out)
	b.rep.Files = len(b.files)
	b.rep.Duration = last
	clients := make(map[int32]bool)
	for i := range b.out {
		clients[b.out[i].Client] = true
	}
	b.rep.Clients = len(clients)
	return b.out, nil
}

// push appends one record, stamping the routing server from the file ID.
func (b *builder) push(r trace.Record) {
	r.Server = server.HomeOf(r.File)
	b.out = append(b.out, r)
}

// ensureOpen returns the open state for (client, proc, file), synthesizing
// an open bracket at time t if the foreign trace never showed one (the
// orphaned-read/write case: the capture started mid-session).
func (b *builder) ensureOpen(ev *event, file uint64) *openState {
	k := openKey{client: ev.client, proc: ev.proc, file: file}
	if st, ok := b.open[k]; ok {
		return st
	}
	st := &openState{key: k, handle: b.nextH, dir: ev.flags&trace.FlagDirectory != 0}
	b.nextH++
	b.open[k] = st
	flags := uint8(trace.FlagReadMode | trace.FlagWriteMode)
	if st.dir {
		flags |= trace.FlagDirectory
	}
	b.push(trace.Record{
		Time: ev.time, Kind: trace.KindOpen, Flags: flags,
		Client: ev.client, User: ev.user, Proc: ev.proc,
		File: file, Handle: st.handle, Size: b.sizes[file],
	})
	b.rep.SynthOpens++
	return st
}

// closeState emits a close for st and forgets it.
func (b *builder) closeState(st *openState, t time.Duration) {
	var flags uint8
	if st.dir {
		flags = trace.FlagDirectory
	}
	b.push(trace.Record{
		Time: t, Kind: trace.KindClose, Flags: flags,
		Client: st.key.client, Proc: st.key.proc,
		File: st.key.file, Handle: st.handle, Size: b.sizes[st.key.file],
	})
	delete(b.open, st.key)
}

// grow tracks the running max extent of a file, the size stamped on
// subsequent opens and closes.
func (b *builder) grow(file uint64, extent int64) {
	if extent > b.sizes[file] {
		b.sizes[file] = extent
	}
}

// emit converts one time-ordered event into native records.
func (b *builder) emit(ev *event) {
	file := b.intern(ev.path)
	switch ev.kind {
	case trace.KindOpen:
		k := openKey{client: ev.client, proc: ev.proc, file: file}
		if st, ok := b.open[k]; ok {
			// Double open without a close: close the stale bracket first
			// so handles never alias.
			b.closeState(st, ev.time)
			b.rep.SynthCloses++
		}
		st := &openState{key: k, handle: b.nextH, dir: ev.flags&trace.FlagDirectory != 0}
		b.nextH++
		b.open[k] = st
		flags := ev.flags
		if flags&(trace.FlagReadMode|trace.FlagWriteMode) == 0 {
			flags |= trace.FlagReadMode | trace.FlagWriteMode
		}
		b.grow(file, ev.size)
		b.push(trace.Record{
			Time: ev.time, Kind: trace.KindOpen, Flags: flags,
			Client: ev.client, User: ev.user, Proc: ev.proc,
			File: file, Handle: st.handle, Size: b.sizes[file],
		})

	case trace.KindClose:
		k := openKey{client: ev.client, proc: ev.proc, file: file}
		st, ok := b.open[k]
		if !ok {
			// Close with no open in the window: synthesize the bracket so
			// the pair replays.
			st = b.ensureOpen(ev, file)
		}
		b.closeState(st, ev.time)

	case trace.KindRead, trace.KindWrite, trace.KindDirRead:
		st := b.ensureOpen(ev, file)
		off := ev.offset
		if off < 0 {
			off = st.pos
		}
		st.pos = off + ev.length
		if ev.kind != trace.KindRead || b.sizes[file] < off+ev.length {
			b.grow(file, off+ev.length)
		}
		var flags uint8
		if st.dir || ev.kind == trace.KindDirRead {
			flags |= trace.FlagDirectory
		}
		b.push(trace.Record{
			Time: ev.time, Kind: ev.kind, Flags: flags,
			Client: ev.client, User: ev.user, Proc: ev.proc,
			File: file, Handle: st.handle, Offset: off, Length: ev.length,
		})

	case trace.KindReposition:
		st := b.ensureOpen(ev, file)
		st.pos = ev.offset
		b.push(trace.Record{
			Time: ev.time, Kind: trace.KindReposition,
			Client: ev.client, User: ev.user, Proc: ev.proc,
			File: file, Handle: st.handle, Offset: ev.offset,
		})

	case trace.KindCreate:
		b.grow(file, ev.size)
		b.push(trace.Record{
			Time: ev.time, Kind: trace.KindCreate, Flags: ev.flags & trace.FlagDirectory,
			Client: ev.client, User: ev.user, Proc: ev.proc, File: file,
		})

	case trace.KindDelete, trace.KindTruncate:
		if ev.kind == trace.KindDelete {
			// Unlink-while-open has no counterpart in the Sprite model:
			// close every live bracket on the file first, deterministically.
			var stale []*openState
			// order-free: collected, then sorted.
			for _, st := range b.open {
				if st.key.file == file {
					stale = append(stale, st)
				}
			}
			sort.Slice(stale, func(i, j int) bool {
				a, c := stale[i].key, stale[j].key
				if a.client != c.client {
					return a.client < c.client
				}
				return a.proc < c.proc
			})
			for _, st := range stale {
				b.closeState(st, ev.time)
				b.rep.SynthCloses++
			}
		}
		b.sizes[file] = 0
		b.push(trace.Record{
			Time: ev.time, Kind: ev.kind, Flags: ev.flags & trace.FlagDirectory,
			Client: ev.client, User: ev.user, Proc: ev.proc, File: file,
		})
	}
}
