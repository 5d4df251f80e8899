package scale

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"time"

	"spritefs/internal/cluster"
	"spritefs/internal/netsim"
	"spritefs/internal/sim"
	"spritefs/internal/stats"
)

// remoteSeedSalt decorrelates the remote-access generator's stream from
// the shard's workload stream (both derive from the shard seed).
const remoteSeedSalt = 0x7e607e60c0ffee

// never is a sentinel virtual time no event ever reaches.
const never = sim.Time(math.MaxInt64)

// gatewayClient is the client id the segment's router gateway presents to
// the local wire when it forwards a remote request to a server. The id's
// one reader is the fault hook, which scopes partitions and crashes by
// workstation id; no workstation is negative, so gateway traffic is
// perturbed by server- and wire-scoped faults only.
const gatewayClient int32 = -1

// RemoteStats accounts one shard's view of cross-segment traffic.
type RemoteStats struct {
	OpsIssued int64 // remote requests this shard's clients sent
	OpsServed int64 // remote requests this shard's servers answered
	Replies   int64 // completions received back
	BytesOut  int64 // logical bytes written to remote shards
	BytesIn   int64 // logical bytes read from remote shards
	// CrossSiteOps counts the issued requests whose home was in another
	// site — the ones that traverse the WAN tier (always 0 in a flat
	// topology).
	CrossSiteOps int64
	// Latency is the end-to-end remote operation latency distribution
	// (request issue to reply arrival), in nanoseconds.
	Latency stats.Welford
	// WANLatency is the same distribution restricted to operations that
	// crossed the WAN tier.
	WANLatency stats.Welford
}

// Shard is one Ethernet segment: a hermetic cluster plus the executor's
// per-shard message state. All fields are owned by whichever goroutine is
// running the shard's round; the coordinator touches inbox/outbox only at
// round exchanges, with channel synchronization ordering the accesses.
type Shard struct {
	ID int
	C  *cluster.Cluster

	rng *sim.Rand // remote-access generator stream

	inbox   []*Message // pending inbound, sorted by (Arrive, From, Seq)
	outbox  []*Message // collected during the current round
	msgFree []*Message // recycled messages (refilled after delivery)
	seq     uint64
	// msgAllocs counts allocMsg calls that found the free list empty and
	// had to allocate. A pure function of the topology and seeds (the
	// channel-clock protocol is deterministic), so it participates in the
	// byte-identity guarantee.
	msgAllocs int64
	// ranTo is the last bound this shard advanced to (the executor's
	// advance-width accounting).
	ranTo sim.Time
	// nextRemoteAt is the remote generator's next fire time (never when
	// the generator is inactive or has stopped). Together with the inbox
	// head it bounds the shard's earliest possible send, which lets the
	// executor stretch per-link channel clocks far beyond the link
	// latency.
	nextRemoteAt sim.Time

	remote RemoteStats

	eng *Engine // topology backref (placement, remote config, counters)
}

// allocMsg pops a recycled message (or allocates one). The caller
// overwrites every field, so stale contents cannot leak. Each shard's
// free list is touched only by the goroutine running that shard's round,
// so no locking is needed; messages recycle into the free list of the
// shard that consumed them, which may differ from the one that sent them.
func (sh *Shard) allocMsg() *Message {
	if n := len(sh.msgFree); n > 0 {
		m := sh.msgFree[n-1]
		sh.msgFree = sh.msgFree[:n-1]
		return m
	}
	sh.msgAllocs++
	return &Message{}
}

// freeMsg recycles a fully consumed message.
func (sh *Shard) freeMsg(m *Message) { sh.msgFree = append(sh.msgFree, m) }

// send stamps m with the shard's identity and sequence number and queues
// it for routing at the next exchange.
func (sh *Shard) send(m *Message) {
	m.From = sh.ID
	sh.seq++
	m.Seq = sh.seq
	sh.outbox = append(sh.outbox, m)
}

// startRemote schedules the shard's cross-segment traffic generator: a
// Poisson process over the shard's client count, stopping at the horizon.
func (sh *Shard) startRemote(horizon time.Duration) {
	sh.nextRemoteAt = never
	cfg := sh.eng.Cfg.Remote
	if cfg.OpsPerClientHour <= 0 || len(sh.eng.Shards) < 2 || len(sh.C.Clients) == 0 {
		return
	}
	mean := time.Duration(float64(time.Hour) / (cfg.OpsPerClientHour * float64(len(sh.C.Clients))))
	if mean <= 0 {
		mean = time.Second
	}
	arm := func() {
		sh.nextRemoteAt = sh.C.Sim.Now() + sh.rng.ExpDur(mean)
	}
	var tick func()
	tick = func() {
		if sh.C.Sim.Now() >= horizon {
			sh.nextRemoteAt = never
			return
		}
		sh.issueRemote()
		arm()
		sh.C.Sim.At(sh.nextRemoteAt, tick)
	}
	arm()
	sh.C.Sim.At(sh.nextRemoteAt, tick)
}

// earliestSend bounds when the shard could next emit a cross-shard
// message: sends happen only from the remote generator's ticks and from
// serving inbound requests, both of whose next occurrence times are known.
func (sh *Shard) earliestSend() sim.Time {
	t := sh.nextRemoteAt
	if len(sh.inbox) > 0 && sh.inbox[0].Arrive < t {
		t = sh.inbox[0].Arrive
	}
	return t
}

// issueRemote emits one cross-segment operation: pick a remote placed
// file (site-affine when the topology has sites), pay the local segment
// hop from the client to the router gateway, and send the request across
// the backbone.
func (sh *Shard) issueRemote() {
	cfg := sh.eng.Cfg.Remote
	pf, ok := sh.eng.Placement.PickRemote(sh.rng, sh.ID, cfg.SiteAffinity)
	if !ok {
		return
	}
	if !sh.eng.topo.SameSite(sh.ID, pf.Shard) {
		sh.remote.CrossSiteOps++
	}
	now := sh.C.Sim.Now()
	client := int32(sh.rng.Intn(len(sh.C.Clients)))
	bytes := int64(sh.rng.LogNormal(cfg.BytesMedian, cfg.BytesSigma)) + 1
	m := sh.allocMsg()
	*m = Message{
		Send:   now,
		To:     pf.Shard,
		Client: client,
		File:   pf.File,
		Server: pf.Server,
		Issued: now,
	}
	if sh.rng.Bool(cfg.ReadFrac) {
		if pf.Size > 0 && bytes > pf.Size {
			bytes = pf.Size
		}
		m.Kind = RemoteRead
		m.Bytes = bytes
		m.Payload = ctrlBytes
		// Client → gateway hop: a small control RPC on the local segment.
		sh.C.Net.RPCTo(netsim.AnyServer, client, netsim.Control, ctrlBytes)
	} else {
		m.Kind = RemoteWrite
		m.Bytes = bytes
		m.Payload = ctrlBytes + bytes
		// The write's data crosses the local segment to the gateway too.
		sh.C.Net.RPCTo(netsim.AnyServer, client, netsim.SharedWrite, bytes)
		sh.remote.BytesOut += bytes
	}
	sh.remote.OpsIssued++
	sh.send(m)
}

// deliver handles one inbound message at its arrival time. The message is
// fully consumed by the handler, so it is recycled into this shard's free
// list afterwards (serve copies every field it forwards into the reply).
func (sh *Shard) deliver(m *Message) {
	switch m.Kind {
	case RemoteRead, RemoteWrite:
		sh.serve(m)
	case RemoteReply:
		sh.complete(m)
	default:
		panic(fmt.Sprintf("scale: shard %d received unknown message kind %v", sh.ID, m.Kind))
	}
	sh.freeMsg(m)
}

// serve answers a remote request against the shard's server group: the
// gateway crosses the local segment to the placed file's server, the
// server's storage is exercised, and the reply goes back across the
// backbone after the service time has elapsed.
func (sh *Shard) serve(m *Message) {
	now := sh.C.Sim.Now()
	srvIdx := int(m.Server)
	if srvIdx < 0 || srvIdx >= len(sh.C.Servers) {
		srvIdx = 0
	}
	srv := sh.C.Servers[srvIdx]
	var service time.Duration
	if m.Kind == RemoteRead {
		service += srv.ServeSpan(m.File, 0, m.Bytes, now)
		service += sh.C.Net.RPCTo(srv.ID(), gatewayClient, netsim.SharedRead, m.Bytes)
	} else {
		srv.AcceptSpan(m.File, 0, m.Bytes, now)
		service += sh.C.Net.RPCTo(srv.ID(), gatewayClient, netsim.SharedWrite, m.Bytes)
	}
	sh.remote.OpsServed++
	payload := int64(ctrlBytes)
	if m.Kind == RemoteRead {
		payload = m.Bytes
	}
	reply := sh.allocMsg()
	*reply = Message{
		Send:    now + service,
		To:      m.From,
		Kind:    RemoteReply,
		Op:      m.Kind,
		Client:  m.Client,
		File:    m.File,
		Server:  m.Server,
		Bytes:   m.Bytes,
		Payload: payload,
		Issued:  m.Issued,
	}
	sh.send(reply)
}

// complete finishes a remote operation at its requesting shard: the data
// (or ack) crosses the local segment from the gateway to the client, and
// the end-to-end latency is recorded.
func (sh *Shard) complete(m *Message) {
	now := sh.C.Sim.Now()
	class := netsim.Control
	if m.Op == RemoteRead {
		class = netsim.SharedRead
		sh.remote.BytesIn += m.Bytes
	}
	sh.C.Net.RPCTo(netsim.AnyServer, m.Client, class, m.Payload)
	sh.remote.Replies++
	sh.remote.Latency.Add(float64(now - m.Issued))
	if !sh.eng.topo.SameSite(sh.ID, m.From) {
		sh.remote.WANLatency.Add(float64(now - m.Issued))
	}
}

// enqueue adds routed messages to the inbox, restoring the (Arrive, From,
// Seq) order. Called only at round exchanges by the coordinator.
func (sh *Shard) enqueue(msgs []*Message) {
	if len(msgs) == 0 {
		return
	}
	sh.inbox = append(sh.inbox, msgs...)
	slices.SortFunc(sh.inbox, func(a, b *Message) int {
		if c := cmp.Compare(a.Arrive, b.Arrive); c != 0 {
			return c
		}
		if c := cmp.Compare(a.From, b.From); c != 0 {
			return c
		}
		return cmp.Compare(a.Seq, b.Seq)
	})
}

// advanceTo runs the shard to its channel-clock bound: due inbound
// messages are scheduled at their arrival times, then the simulator runs
// every event at or before the bound. Messages emitted during the round
// accumulate in the outbox for the exchange.
func (sh *Shard) advanceTo(end sim.Time) {
	n := 0
	for ; n < len(sh.inbox) && sh.inbox[n].Arrive <= end; n++ {
		m := sh.inbox[n]
		if m.Arrive < sh.C.Sim.Now() {
			panic(fmt.Sprintf("scale: shard %d message arrival %v before clock %v (lookahead violated)",
				sh.ID, m.Arrive, sh.C.Sim.Now()))
		}
		sh.C.Sim.At(m.Arrive, func() { sh.deliver(m) })
	}
	sh.inbox = sh.inbox[n:]
	sh.C.Sim.RunUntil(end)
}

// takeOutbox returns the round's outbound messages and resets the outbox,
// keeping its backing array for the next round. The returned slice is
// valid until the shard's next round, which cannot start before the
// coordinator finishes the exchange.
func (sh *Shard) takeOutbox() []*Message {
	out := sh.outbox
	sh.outbox = sh.outbox[:0]
	return out
}

// nextAt returns the earliest pending local event or inbound arrival.
func (sh *Shard) nextAt() (sim.Time, bool) {
	t, ok := sh.C.Sim.NextAt()
	if len(sh.inbox) > 0 && (!ok || sh.inbox[0].Arrive < t) {
		return sh.inbox[0].Arrive, true
	}
	return t, ok
}
