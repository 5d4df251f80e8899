package consistency

import (
	"time"

	"spritefs/internal/trace"
)

// EventKind labels a distilled shared-file event.
type EventKind uint8

// Event kinds.
const (
	EvOpen EventKind = iota
	EvClose
	EvRead
	EvWrite
)

// Event is one access to a shared file, distilled from the trace.
type Event struct {
	Time     time.Duration
	Kind     EventKind
	Client   int32
	User     int32
	File     uint64
	Handle   uint64
	Offset   int64
	Bytes    int64
	Write    bool // open/close mode for EvOpen/EvClose
	Migrated bool
	Shared   bool // the record carried FlagShared (logged during CWS)
}

// SharedTrace is the input to the consistency simulators plus the trace
// totals the tables are normalized by.
type SharedTrace struct {
	Events []Event
	// TotalOpens counts all file opens in the trace (Table 10/11 use it
	// as the denominator).
	TotalOpens int64
	// MigratedOpens counts opens by migrated processes.
	MigratedOpens int64
	// Users is the set of users seen anywhere in the trace.
	Users map[int32]bool
	// Duration is the trace length (time of last record).
	Duration time.Duration
}

// CollectShared distills the events the simulators need from a full trace:
// all opens/closes/reads/writes on *shared* files — files accessed from
// more than one client with at least one writer among them — in time
// order. Directories are excluded, as in the paper. It runs a
// SharedCollector over recs.
func CollectShared(recs []trace.Record) SharedTrace {
	c := NewSharedCollector()
	for i := range recs {
		c.Observe(&recs[i])
	}
	c.Finish()
	return c.SharedTrace
}

// SharedCollector is CollectShared as an analysis sink: it takes a trace a
// record at a time, so it rides the analyzers' single pass over a stream.
// Whether a file is shared is known only at the end of the trace, so every
// candidate event is kept with its file's use record, and Finish keeps the
// events of the files that turned out shared.
//
// A pass sees about twice as many candidates as it keeps, so they are held
// in fixed-size chunks that are filled and never copied, each event beside
// the index of its file's use record; nothing there holds a pointer for the
// collector to scan. Finish sizes the kept events exactly.
type SharedCollector struct {
	// SharedTrace is complete once Finish has run.
	SharedTrace

	uses   map[uint64]int32 // index of each file's record in useRec
	useRec []fileUse
	chunks []*candidates // full but for the last
}

// fileUse is what decides whether one file is shared.
type fileUse struct {
	client  int32 // the first client seen accessing the file
	several bool  // a second client has accessed it
	written bool  // some client has written it or opened it for writing
}

// chunkLen is how many candidate events one chunk holds.
const chunkLen = 4096

// candidates is one chunk of candidate events: ev[i] is an access to the
// file whose use record is useRec[use[i]].
type candidates struct {
	n   int
	ev  [chunkLen]Event
	use [chunkLen]int32
}

// NewSharedCollector returns an empty collector.
func NewSharedCollector() *SharedCollector {
	return &SharedCollector{
		SharedTrace: SharedTrace{Users: make(map[int32]bool)},
		uses:        make(map[uint64]int32),
	}
}

// Observe takes the next record of the trace.
func (c *SharedCollector) Observe(r *trace.Record) {
	if r.Time > c.Duration {
		c.Duration = r.Time
	}
	c.Users[r.User] = true
	if r.IsDirectory() {
		return
	}
	var kind EventKind
	switch r.Kind {
	case trace.KindOpen:
		c.TotalOpens++
		if r.IsMigrated() {
			c.MigratedOpens++
		}
		kind = EvOpen
	case trace.KindClose:
		kind = EvClose
	case trace.KindRead:
		kind = EvRead
	case trace.KindWrite:
		kind = EvWrite
	default:
		return
	}
	writeMode := r.Flags&trace.FlagWriteMode != 0
	ui, seen := c.uses[r.File]
	if !seen {
		ui = int32(len(c.useRec))
		c.useRec = append(c.useRec, fileUse{client: r.Client})
		c.uses[r.File] = ui
	}
	u := &c.useRec[ui]
	if r.Client != u.client {
		u.several = true
	}
	if kind == EvWrite || (kind == EvOpen && writeMode) {
		u.written = true
	}
	ch := c.tail()
	ch.ev[ch.n] = Event{
		Time:     r.Time,
		Kind:     kind,
		Client:   r.Client,
		User:     r.User,
		File:     r.File,
		Handle:   r.Handle,
		Offset:   r.Offset,
		Bytes:    r.Length,
		Write:    (kind == EvOpen || kind == EvClose) && writeMode,
		Migrated: r.IsMigrated(),
		Shared:   r.Flags&trace.FlagShared != 0,
	}
	ch.use[ch.n] = ui
	ch.n++
}

// tail returns the chunk the next candidate goes into, starting a new one
// when the last is full.
func (c *SharedCollector) tail() *candidates {
	if n := len(c.chunks); n > 0 && c.chunks[n-1].n < chunkLen {
		return c.chunks[n-1]
	}
	ch := new(candidates)
	c.chunks = append(c.chunks, ch)
	return ch
}

// shared reports whether the file of use record i turned out shared.
func (c *SharedCollector) shared(i int32) bool {
	u := &c.useRec[i]
	return u.several && u.written
}

// Finish keeps the events of the files that are shared.
func (c *SharedCollector) Finish() {
	n := 0
	for _, ch := range c.chunks {
		for _, ui := range ch.use[:ch.n] {
			if c.shared(ui) {
				n++
			}
		}
	}
	var kept []Event
	if n > 0 {
		kept = make([]Event, 0, n)
		for _, ch := range c.chunks {
			for i, ui := range ch.use[:ch.n] {
				if c.shared(ui) {
					kept = append(kept, ch.ev[i])
				}
			}
		}
	}
	c.Events, c.chunks, c.uses, c.useRec = kept, nil, nil, nil
}
