// Crash, restart and recovery: the server half of Sprite's stateful
// recovery protocol. A Sprite server keeps its open-file tables and
// write-sharing state in volatile memory, so a crash discards them; after
// restart, clients re-register their open handles (Recover) and replay
// dirty blocks, and the server rebuilds consistency state from the
// re-registrations. Authoritative file metadata (the file table models the
// on-disk name space) survives; only open registrations, last-writer hints,
// cacheability decisions and un-synced server-cache blocks are lost.

package server

import (
	"errors"
	"fmt"
	"slices"
	"time"
)

// ErrDown is returned by operations attempted while the server is crashed
// and not yet restarted.
var ErrDown = errors.New("server: down")

// CrashOutcome describes what a crash destroyed.
type CrashOutcome struct {
	OpensDropped   int           // open registrations discarded
	DirtyBytesLost int64         // un-synced server-cache bytes lost
	MaxDirtyAge    time.Duration // oldest lost dirty byte's age
}

// Crash discards the server's volatile state: every open registration,
// last-writer hint and write-sharing decision, plus any server-cache
// blocks not yet synced to disk. File metadata survives (it models the
// on-disk name space). The server is down until Restart.
func (s *Server) Crash(now time.Duration) CrashOutcome {
	var out CrashOutcome
	s.files.each(func(f *File) {
		for i := range f.openers {
			out.OpensDropped += int(f.openers[i].reads) + int(f.openers[i].writes)
		}
		f.openers = f.openers[:0]
		f.lastWriter = NoClient
		f.uncacheable = false
	})
	if s.Store != nil {
		loss := s.Store.Crash(now)
		out.DirtyBytesLost = loss.DirtyBytes
		out.MaxDirtyAge = loss.MaxDirtyAge
	}
	s.down = true
	s.st.Crashes++
	s.st.OpensLostInCrash += int64(out.OpensDropped)
	return out
}

// Restart brings a crashed server back up under a new epoch. Clients
// notice the epoch change and run the recovery protocol.
func (s *Server) Restart(now time.Duration) {
	s.down = false
	s.epoch++
}

// Down reports whether the server is crashed and not yet restarted.
func (s *Server) Down() bool { return s.down }

// Epoch returns the restart generation. It changes exactly when volatile
// state has been lost, so a client that cached the epoch at open time can
// detect a restart by comparison alone.
func (s *Server) Epoch() uint64 { return s.epoch }

// Disconnect purges one client's open registrations, as the server does
// when a workstation crashes (Sprite servers detect dead clients and clean
// up their state). It returns the number of registrations dropped.
func (s *Server) Disconnect(client int32, now time.Duration) int {
	dropped := 0
	s.files.each(func(f *File) {
		if o := f.opener(client); o != nil {
			dropped += int(o.reads) + int(o.writes)
			f.removeOpener(client)
		}
		if f.lastWriter == client {
			f.lastWriter = NoClient
		}
		if f.uncacheable && f.Openers() == 0 {
			f.uncacheable = false
		}
	})
	return dropped
}

// Recover re-registers a client's open handles for one file after a server
// restart. readCount and writeCount are the client's authoritative handle
// counts; the server SETS its registration to them rather than adding, so
// recovery is idempotent — a retried or duplicate re-registration cannot
// double-count opens. Write-sharing is re-detected from the rebuilt open
// table; re-detections count as RecoveryCWS, not as new CWS events, so
// Table 10 is not inflated by recovery.
func (s *Server) Recover(id uint64, client int32, readCount, writeCount int, now time.Duration) (OpenReply, error) {
	if s.down {
		return OpenReply{}, ErrDown
	}
	f := s.files.lookup(id)
	if f == nil {
		// Deleted while the client was cut off; the client drops the handle.
		return OpenReply{}, fmt.Errorf("server %d: recover of unknown file %#x", s.id, id)
	}
	if readCount > 0 || writeCount > 0 {
		o := f.opener(client)
		if o == nil {
			f.openers = append(f.openers, opener{client: client})
			o = &f.openers[len(f.openers)-1]
		}
		o.reads = int32(readCount)
		o.writes = int32(writeCount)
	} else {
		f.removeOpener(client)
	}
	s.st.RecoveryOpens++

	reply := OpenReply{Version: f.Version, Size: f.Size, Cacheable: true, RecallFrom: NoClient}
	if f.Directory {
		reply.Cacheable = false
		return reply, nil
	}
	if !f.uncacheable && f.Openers() >= 2 && f.WriterCount() >= 1 {
		f.uncacheable = true
		reply.StartedCWS = true
		reply.DisableOn = f.disableList(client)
		s.st.RecoveryCWS++
	}
	if f.uncacheable {
		reply.Cacheable = false
	}
	return reply, nil
}

// disableList returns the clients other than except that cache the file
// and must flush and bypass when write-sharing starts, sorted so the
// disable sequence is deterministic.
func (f *File) disableList(except int32) []int32 {
	// Every openers entry has a positive read or write count, so the list
	// is simply every opening client but the initiator (the same set the
	// old reader/writer maps produced: readers plus writers-only clients).
	var out []int32
	for i := range f.openers {
		if c := f.openers[i].client; c != except {
			out = append(out, c)
		}
	}
	slices.Sort(out)
	return out
}

// Registration returns the server's open registration counts for one
// client on this file (the server half of what the invariant checker
// compares against client handle tables).
func (f *File) Registration(client int32) (readers, writers int) {
	if o := f.opener(client); o != nil {
		return int(o.reads), int(o.writes)
	}
	return 0, 0
}

// EachFile calls fn on every woken file in ascending id order. It skips
// the dormant bootstrap files no one has looked up yet, which have no open
// registration, no last writer and caching enabled. fn must not create,
// install, delete or look up files.
func (s *Server) EachFile(fn func(*File)) { s.files.each(fn) }

// NoteRecovery records one client's completed recovery: d is the time from
// crash to that client regaining a consistent view. The maximum across
// clients is the cluster's time-to-reconsistency.
func (s *Server) NoteRecovery(d time.Duration) {
	if d > s.st.MaxRecoveryTime {
		s.st.MaxRecoveryTime = d
	}
}
