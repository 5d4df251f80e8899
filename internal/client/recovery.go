// Client crash and server-recovery protocol. Sprite servers are stateful
// (open tables, cacheability decisions live in server memory), so the
// system's fault story is a client-driven recovery protocol: when a client
// notices a server restarted — the server's epoch changed — it re-registers
// every open handle, relearns per-file cacheability, and replays the dirty
// blocks its delayed-write cache still holds. Detection is lazy, on the
// next open or close against the server, which is how the real system's
// periodic-ping discovery collapses into a synchronous simulator.

package client

import (
	"slices"
	"time"

	"spritefs/internal/fscache"
	"spritefs/internal/netsim"
	"spritefs/internal/server"
)

// RecoveryRetryLimit bounds how many times a client retries contacting a
// down server before giving up for this attempt (it will try again on its
// next contact, since the server's epoch only changes at restart).
const RecoveryRetryLimit = 8

// RecoveryBackoff is the initial retry backoff; it doubles per retry, so a
// full retry cycle waits (2^RecoveryRetryLimit - 1) * RecoveryBackoff.
const RecoveryBackoff = 100 * time.Millisecond

// RecoveryStats counts a client's fault-recovery activity.
type RecoveryStats struct {
	Recoveries      int64 // completed recovery protocol runs
	ReopenedFiles   int64 // per-file re-registrations sent
	ReopenedHandles int64 // handles covered by those re-registrations
	ReplayedBytes   int64 // dirty bytes replayed to restarted servers
	Retries         int64 // backoff retries against down servers
	GaveUp          int64 // recovery attempts abandoned after the retry limit
	Crashes         int64 // times this workstation crashed
	LostDirtyBytes  int64 // dirty bytes destroyed by those crashes
	MaxLostDirtyAge time.Duration
}

// RecoveryStats returns a snapshot of the client's recovery counters.
func (c *Client) RecoveryStats() RecoveryStats { return c.rec }

// RecoveryResult describes one recovery protocol run.
type RecoveryResult struct {
	Files         int // distinct files re-registered
	Reopened      int // handles re-registered
	ReplayedBytes int64
	Retries       int
	GaveUp        bool
	Latency       time.Duration // protocol cost: RPCs, replay, backoff
}

// maybeRecover checks the server's epoch against the one last seen and runs
// the recovery protocol on a mismatch. Called from Open and Close — the
// operations that register state at the server — so a restart is always
// detected before new state lands on the rebuilt tables.
func (c *Client) maybeRecover(srv *server.Server) time.Duration {
	last, seen := c.epochSeen(srv.ID())
	cur := srv.Epoch()
	if !seen || last == cur {
		c.noteEpoch(srv.ID(), cur)
		return 0
	}
	return c.RecoverServer(srv).Latency
}

// epochSeen returns the epoch last seen of server sid, and whether one was.
func (c *Client) epochSeen(sid int16) (uint64, bool) {
	if int(sid) < len(c.epochs) && c.epochs[sid] != 0 {
		return c.epochs[sid] - 1, true
	}
	return 0, false
}

// noteEpoch records epoch as the one last seen of server sid.
func (c *Client) noteEpoch(sid int16, epoch uint64) {
	if n := int(sid) + 1; n > len(c.epochs) {
		c.epochs = append(c.epochs, make([]uint64, n-len(c.epochs))...)
	}
	c.epochs[sid] = epoch + 1
}

// RecoverServer runs the Sprite recovery protocol against one server:
// bounded-backoff wait while the server is down, then re-registration of
// every open handle (one control RPC per file), cacheability relearning,
// and replay of all dirty blocks this cache holds for the server's files.
// Safe to call when nothing was lost; re-registration is idempotent at the
// server, so duplicate runs cannot corrupt open counts.
func (c *Client) RecoverServer(srv *server.Server) RecoveryResult {
	var r RecoveryResult
	sid := srv.ID()

	backoff := RecoveryBackoff
	for r.Retries < RecoveryRetryLimit && srv.Down() {
		r.Retries++
		c.rec.Retries++
		r.Latency += backoff
		backoff *= 2
	}
	if srv.Down() {
		// Give up for now; the epoch stays unsynced, so the next contact
		// retries the whole protocol.
		r.GaveUp = true
		c.rec.GaveUp++
		return r
	}
	epoch := srv.Epoch()
	if last, seen := c.epochSeen(sid); seen && last == epoch {
		return r // no restart since we last synced; nothing was lost
	}
	now := c.sim.Now()

	// Re-register the open handles of this server's files, aggregated per
	// file the way the server tracks them.
	counts := c.HandleCounts()
	files := make([]uint64, 0, len(counts))
	// order-free: collected, then sorted.
	for f := range counts {
		if c.route(f) == srv {
			files = append(files, f)
		}
	}
	slices.Sort(files)

	for _, file := range files {
		n := counts[file]
		r.Latency += c.net.RPCTo(sid, c.cfg.ID, netsim.Control, 0)
		reply, err := srv.Recover(file, c.cfg.ID, n[0], n[1], now)
		if err != nil {
			// Deleted while we were cut off: the cached copy is garbage and
			// the handles will no-op from here on.
			c.Cache.Invalidate(file)
			delete(c.versions, file)
			continue
		}
		r.Files++
		r.Reopened += n[0] + n[1]
		if v, ok := c.versions[file]; ok && v != reply.Version {
			if c.Cache.Invalidate(file) > 0 {
				srv.NoteInvalidation()
			}
		}
		c.noteVersion(file, reply.Version)
		if c.cfg.Consistency == ConsistencySprite && len(reply.DisableOn) > 0 && c.coord != nil {
			c.coord.DisableCaching(reply.DisableOn, file)
		}
		if !reply.Cacheable {
			// order-free: marks every handle on the file.
			for _, h := range c.handles {
				if h.file == file {
					h.shared = true
				}
			}
		}
	}

	// Replay dirty blocks: the restarted server lost every un-synced block
	// in its own cache, so the client's delayed-write data must go back —
	// including for files no longer open (dirty-at-close is the norm under
	// a 30-second delay).
	for _, file := range c.Cache.DirtyFiles() {
		if c.route(file) != srv {
			continue
		}
		for _, wb := range c.Cache.RecoverFlush(file, now) {
			r.Latency += c.shipOne(srv, wb, now)
			r.ReplayedBytes += wb.Bytes
		}
	}

	c.noteEpoch(sid, epoch)
	c.rec.Recoveries++
	c.rec.ReopenedFiles += int64(r.Files)
	c.rec.ReopenedHandles += int64(r.Reopened)
	c.rec.ReplayedBytes += r.ReplayedBytes
	return r
}

// Crash models a workstation crash: the cache's resident blocks, all open
// handles, and all consistency bookkeeping vanish. Counters survive (they
// are the measurement infrastructure). The caller is responsible for the
// server side — Disconnect on each server — since a crashed machine cannot
// announce its own death.
func (c *Client) Crash(now time.Duration) fscache.CrashLoss {
	loss := c.Cache.DiscardAll(now)
	c.handles = nil
	c.versions = nil
	clear(c.validated)
	clear(c.epochs)
	c.rec.Crashes++
	c.rec.LostDirtyBytes += loss.DirtyBytes
	if loss.MaxDirtyAge > c.rec.MaxLostDirtyAge {
		c.rec.MaxLostDirtyAge = loss.MaxDirtyAge
	}
	return loss
}

// HandleCounts returns the client's open handles per file — index 0
// read-mode, index 1 write-mode — as the recovery protocol re-registers
// them: a write-mode handle as a writer, everything else as a reader
// (mirroring Open/Close). The invariant checker compares this against the
// server's open tables.
func (c *Client) HandleCounts() map[uint64][2]int {
	counts := make(map[uint64][2]int)
	// order-free: counts into a map.
	for _, h := range c.handles {
		n := counts[h.file]
		if h.write {
			n[1]++
		} else {
			n[0]++
		}
		counts[h.file] = n
	}
	return counts
}
