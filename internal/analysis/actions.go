package analysis

import (
	"spritefs/internal/stats"
	"spritefs/internal/trace"
)

// ConsistencyActions recomputes Table 10 from a trace alone, by replaying
// the server's open/close state machine: concurrent write-sharing events
// (a file becomes open on multiple machines with at least one writer) and
// dirty-data recalls (an open finds the file's current data on another
// client), both as fractions of all file opens.
type ConsistencyActions struct {
	FileOpens int64
	CWS       int64
	Recalls   int64

	files map[uint64]*actionFile
}

type actionFile struct {
	open       trace.OpenTable
	lastWriter int32
	sharing    bool
}

// NewConsistencyActions returns a Table 10 analyzer.
func NewConsistencyActions() *ConsistencyActions {
	return &ConsistencyActions{files: make(map[uint64]*actionFile)}
}

func (a *ConsistencyActions) file(id uint64) *actionFile {
	f := a.files[id]
	if f == nil {
		f = &actionFile{lastWriter: -1}
		a.files[id] = f
	}
	return f
}

// Observe implements Sink.
func (a *ConsistencyActions) Observe(r *trace.Record) {
	if r.IsDirectory() {
		return
	}
	switch r.Kind {
	case trace.KindOpen:
		a.FileOpens++
		f := a.file(r.File)
		if f.lastWriter >= 0 && f.lastWriter != r.Client {
			a.Recalls++
			f.lastWriter = -1
		}
		f.open.Open(r.Client, r.Flags&trace.FlagWriteMode != 0)
		if !f.sharing && f.open.WriteShared() {
			f.sharing = true
			a.CWS++
		}
	case trace.KindClose:
		f := a.file(r.File)
		write := r.Flags&trace.FlagWriteMode != 0
		f.open.Close(r.Client, write)
		if write {
			f.lastWriter = r.Client
		}
		if f.sharing && f.open.Openers() == 0 {
			f.sharing = false
		}
	case trace.KindDelete, trace.KindTruncate:
		delete(a.files, r.File)
	}
}

// Finish implements Sink.
func (a *ConsistencyActions) Finish() {}

// PctCWS returns concurrent write-sharing opens as a percentage of file
// opens (Table 10 row 1; the paper measured about 0.34%).
func (a *ConsistencyActions) PctCWS() float64 { return stats.Ratio(a.CWS, a.FileOpens) }

// PctRecalls returns recall-triggering opens as a percentage of file opens
// (Table 10 row 2; the paper measured about 1.7%).
func (a *ConsistencyActions) PctRecalls() float64 { return stats.Ratio(a.Recalls, a.FileOpens) }
