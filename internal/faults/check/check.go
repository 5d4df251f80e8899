// Package check audits a fault-injected system against the invariants the
// crash-recovery protocol promises. The checks are written against the
// faults.System view, so the same auditor runs over a live cluster, a
// trace replay engine, or a hand-built test rig.
//
// The invariants, in the order checked:
//
//  1. Cache accounting is structurally sound on every client and every
//     server store (block counts, dirty sets, size bookkeeping).
//  2. Open-table agreement: for every file a server knows, the server's
//     per-client read/write registration counts equal the handles the
//     client actually holds. A server crash tears its half down; the
//     recovery protocol must rebuild it exactly — no leaked opens, no
//     double-counted re-registrations.
//  3. Conservation of written-back bytes: every byte a client shipped as
//     a writeback was accepted by some server, and servers accepted no
//     byte that no client sent. Crashes may destroy cached data, but they
//     must never mint or vanish acknowledged transfers.
//  4. Cacheability discipline: a file marked uncacheable is open
//     somewhere. Servers clear the flag when the last opener leaves, and
//     crash recovery must not resurrect it for closed files.
//
// Run requires the system to be quiescent with respect to recovery: every
// scheduled outage healed and its recovery sweep completed. Mid-outage,
// the two sides legitimately disagree — that window is exactly what the
// recovery protocol exists to close.
package check

import (
	"fmt"

	"spritefs/internal/faults"
	"spritefs/internal/server"
)

// Violation is one invariant breach: which rule, and the evidence.
type Violation struct {
	Rule   string
	Detail string
}

func (v Violation) String() string { return v.Rule + ": " + v.Detail }

// Run audits sys and returns every invariant violation found (nil when the
// system is consistent).
func Run(sys faults.System) []Violation {
	var vs []Violation
	bad := func(rule, format string, args ...interface{}) {
		vs = append(vs, Violation{rule, fmt.Sprintf(format, args...)})
	}
	clients := sys.Workstations()
	servers := sys.FileServers()

	// 1. Structural cache accounting, both sides of the wire.
	for _, ws := range clients {
		if err := ws.Cache.CheckInvariants(); err != nil {
			bad("client-cache", "client %d: %v", ws.ID(), err)
		}
	}
	for _, srv := range servers {
		if srv.Store == nil {
			continue
		}
		if err := srv.Store.CheckInvariants(); err != nil {
			bad("server-cache", "server %d: %v", srv.ID(), err)
		}
	}

	// 2. Open-table agreement, per (file, client) pair. Handles a client
	// holds on files no server knows are skipped: the file was deleted
	// while the holder was cut off, and those handles no-op by design.
	counts := make([]map[uint64][2]int, len(clients))
	for i, ws := range clients {
		counts[i] = ws.HandleCounts()
	}
	// A dormant file, which EachFile skips, has no registration.
	for _, srv := range servers {
		srv.EachFile(func(f *server.File) {
			for i, ws := range clients {
				rd, wr := f.Registration(ws.ID())
				want := counts[i][f.ID]
				if rd != want[0] || wr != want[1] {
					bad("open-tables",
						"file %#x client %d: server %d registers r=%d w=%d, client holds r=%d w=%d",
						f.ID, ws.ID(), srv.ID(), rd, wr, want[0], want[1])
				}
			}
		})
	}

	// 3. Conservation of written-back bytes across the whole system.
	var shipped, accepted int64
	for _, ws := range clients {
		shipped += ws.BytesWrittenBack()
	}
	for _, srv := range servers {
		accepted += srv.Stats().WriteBackBytes
	}
	if shipped != accepted {
		bad("conservation", "clients shipped %d writeback bytes, servers accepted %d",
			shipped, accepted)
	}

	// 4. Uncacheable files are open files. A dormant file is cacheable.
	for _, srv := range servers {
		srv.EachFile(func(f *server.File) {
			if f.Uncacheable() && f.Openers() == 0 {
				bad("cacheability", "file %#x on server %d uncacheable with zero openers",
					f.ID, srv.ID())
			}
		})
	}
	return vs
}
