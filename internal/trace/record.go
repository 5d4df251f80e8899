// Package trace defines the file-system trace format used throughout the
// reproduction, mirroring the kernel-call-level traces of the paper
// (Section 3): opens, closes, reads, writes, repositions, creates, deletes,
// truncates and migration markers, logged per file server and merged into a
// single time-ordered stream before analysis.
//
// Unlike the paper's kernels — which logged only open/close/reposition
// positions and forced the analysis to *deduce* transferred byte ranges —
// the synthetic generator can afford to log reads and writes directly.
// Each open is stamped with a unique Handle that subsequent operations
// reference, which removes the small timing uncertainty the paper notes
// without changing any of the analyses.
//
// OpenTable, one file's open registrations per client, lives here so that
// the file server and the trace analyzers keep the same table: the server
// decides recalls and write-sharing from it, and Tables 10 and 12 rebuild
// it from the open and close records.
package trace

import (
	"fmt"
	"time"
)

// Kind identifies the type of a trace record.
type Kind uint8

// Record kinds. The numbering is part of the binary format; append only.
const (
	KindInvalid    Kind = iota
	KindOpen            // file or directory opened; Size = size at open
	KindClose           // handle closed; Size = size at close
	KindRead            // bytes [Offset, Offset+Length) read
	KindWrite           // bytes [Offset, Offset+Length) written
	KindReposition      // lseek: Offset = new position
	KindCreate          // file created (Size = 0)
	KindDelete          // file or directory removed
	KindTruncate        // file truncated to zero length
	KindMigrate         // process migrated to client Client
	KindDirRead         // directory contents read (Length bytes)
	kindMax
)

var kindNames = [...]string{
	KindInvalid:    "invalid",
	KindOpen:       "open",
	KindClose:      "close",
	KindRead:       "read",
	KindWrite:      "write",
	KindReposition: "reposition",
	KindCreate:     "create",
	KindDelete:     "delete",
	KindTruncate:   "truncate",
	KindMigrate:    "migrate",
	KindDirRead:    "dirread",
}

// String returns the lower-case name of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// ParseKind maps a kind name ("open", "read", ...) back to its Kind; ok is
// false for unknown names. It is the inverse of String for valid kinds.
func ParseKind(name string) (Kind, bool) {
	k, ok := kindByName[name]
	return k, ok
}

// Valid reports whether k is a known record kind.
func (k Kind) Valid() bool { return k > KindInvalid && k < kindMax }

// Flags carried by a record.
const (
	// FlagMigrated marks activity performed by a migrated process.
	FlagMigrated uint8 = 1 << iota
	// FlagDirectory marks operations on directories rather than files.
	FlagDirectory
	// FlagReadMode marks an open that permits reading.
	FlagReadMode
	// FlagWriteMode marks an open that permits writing.
	FlagWriteMode
	// FlagShared marks a read/write issued while the file was undergoing
	// concurrent write-sharing (the paper's "Shared Read/Write events",
	// which feed the Section 5.5-5.6 simulators).
	FlagShared
	// FlagSelfTrace marks traffic generated by the tracing machinery
	// itself or the nightly backup; the merger scrubs these, exactly as
	// the paper's merge step did.
	FlagSelfTrace
)

// Record is one trace event. All times are virtual durations from the
// start of the trace.
type Record struct {
	Time   time.Duration
	Kind   Kind
	Flags  uint8
	Server int16  // file server that logged the record
	Client int32  // workstation on which the call executed
	User   int32  // user on whose behalf the call ran
	Proc   int32  // process id
	File   uint64 // file identifier (unique per file incarnation)
	Handle uint64 // open-instance identifier (0 when not applicable)
	Offset int64  // byte offset for read/write/reposition
	Length int64  // byte count for read/write/dirread
	Size   int64  // file size at open/close
}

// IsMigrated reports whether the record came from a migrated process.
func (r *Record) IsMigrated() bool { return r.Flags&FlagMigrated != 0 }

// IsDirectory reports whether the record refers to a directory.
func (r *Record) IsDirectory() bool { return r.Flags&FlagDirectory != 0 }

// Stream is a sequential source of trace records. Next returns io.EOF
// after the final record.
type Stream interface {
	Next() (Record, error)
}

// SliceStream adapts an in-memory record slice to the Stream interface.
type SliceStream struct {
	recs []Record
	pos  int
}

// NewSliceStream returns a Stream over recs. The slice is not copied.
func NewSliceStream(recs []Record) *SliceStream { return &SliceStream{recs: recs} }

// Next implements Stream.
func (s *SliceStream) Next() (Record, error) {
	if s.pos >= len(s.recs) {
		return Record{}, errEOF
	}
	r := s.recs[s.pos]
	s.pos++
	return r, nil
}

// Collect drains a stream into a slice, for the consumers that go over a
// whole trace more than once: the replay, serve and tracefmt tools, and
// tests. An analyzer takes records one at a time, and core.AnalyzeTrace
// runs every analyzer and the consistency collector in one pass over the
// stream, holding no copy of it.
func Collect(s Stream) ([]Record, error) {
	var out []Record
	for {
		r, err := s.Next()
		if err != nil {
			if err == errEOF {
				return out, nil
			}
			return out, err
		}
		out = append(out, r)
	}
}
