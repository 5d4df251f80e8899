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
type SharedCollector struct {
	// SharedTrace is complete once Finish has run.
	SharedTrace

	uses  map[uint64]*fileUse
	useOf []*fileUse // useOf[i] is the use record of Events[i]'s file
}

// fileUse is what decides whether one file is shared.
type fileUse struct {
	client  int32 // the first client seen accessing the file
	several bool  // a second client has accessed it
	written bool  // some client has written it or opened it for writing
}

// NewSharedCollector returns an empty collector.
func NewSharedCollector() *SharedCollector {
	return &SharedCollector{
		SharedTrace: SharedTrace{Users: make(map[int32]bool)},
		uses:        make(map[uint64]*fileUse),
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
	u := c.uses[r.File]
	if u == nil {
		u = &fileUse{client: r.Client}
		c.uses[r.File] = u
	} else if r.Client != u.client {
		u.several = true
	}
	if kind == EvWrite || (kind == EvOpen && writeMode) {
		u.written = true
	}
	c.Events = append(c.Events, Event{
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
	})
	c.useOf = append(c.useOf, u)
}

// Finish drops the events of the files that are not shared.
func (c *SharedCollector) Finish() {
	kept := c.Events[:0]
	for i, ev := range c.Events {
		if u := c.useOf[i]; u.several && u.written {
			kept = append(kept, ev)
		}
	}
	if len(kept) == 0 {
		kept = nil
	}
	c.Events, c.useOf, c.uses = kept, nil, nil
}
