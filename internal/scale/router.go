package scale

import (
	"fmt"
	"time"

	"spritefs/internal/sim"
)

// MsgKind tags a cross-shard message.
type MsgKind uint8

// Message kinds: a remote read request, a remote write request, and the
// reply completing either.
const (
	RemoteRead MsgKind = iota
	RemoteWrite
	RemoteReply
)

var msgKindNames = [...]string{"remote-read", "remote-write", "remote-reply"}

// String returns the kind name.
func (k MsgKind) String() string {
	if int(k) < len(msgKindNames) {
		return msgKindNames[k]
	}
	return fmt.Sprintf("msg(%d)", uint8(k))
}

// Message is one unit of cross-shard communication. Messages are created
// inside a shard's round, routed at the exchange, and delivered into the
// destination shard's simulator at Arrive. The (Arrive, From, Seq) triple
// totally orders deliveries, which is what makes the parallel executor's
// exchange deterministic.
type Message struct {
	Send   sim.Time // virtual time the source emitted it
	Arrive sim.Time // Send + link latency + payload transmission
	From   int      // source shard
	To     int      // destination shard
	Seq    uint64   // per-source sequence number (tie-break)

	Kind MsgKind
	// Op is the original operation kind a RemoteReply completes.
	Op MsgKind
	// Client is the originating client id within the source segment.
	Client int32
	// File is the placed file operated on (destination shard's id space).
	File uint64
	// Bytes is the logical operation size (bytes read or written).
	Bytes int64
	// Payload is what this particular message carries across the
	// backbone: requests carry control bytes (plus the data for writes),
	// replies carry the read data (or a control-sized ack).
	Payload int64
	// Issued is when the original request left its client, preserved in
	// the reply so the source shard can record end-to-end latency.
	Issued sim.Time
}

// ctrlBytes is the backbone cost of a request/ack frame without data.
const ctrlBytes = 128

// Router is the inter-segment backbone: it prices every cross-shard
// message from the tier table and accounts the traffic per tier. Its two
// tier latencies are also the channel-clock executor's lookahead, so a
// WAN link's high price is a wide parallelism window; routing happens
// only at round exchanges on the coordinator goroutine, so it needs no
// locking.
type Router struct {
	topo Topology
	lat  [2]time.Duration // store-and-forward latency per tier
	bw   [2]float64       // end-to-end bandwidth per tier

	// Per-tier accounting, indexed by tier: 0 = site tier (intra-site
	// links, every link of a flat topology), 1 = WAN tier (cross-site).
	tierMsgs  [2]int64
	tierBytes [2]int64
	tierBusy  [2]time.Duration
}

// NewRouter returns a router joining the topology's segments. An
// intra-site link costs one Site hop; a cross-site link store-and-forwards
// through site backbone, WAN trunk and site backbone, so its latency is
// 2·Site.Latency + WAN.Latency and its bandwidth the harmonic combination
// of the three hops. No path through other shards undercuts a direct
// link, so each tier's latency is also the cheapest any message between
// two shards of that tier can arrive.
func NewRouter(tiers TiersConfig, topo Topology) *Router {
	return &Router{
		topo: topo,
		lat:  [2]time.Duration{tiers.Site.Latency, 2*tiers.Site.Latency + tiers.WAN.Latency},
		bw:   [2]float64{tiers.Site.BandwidthBps, 1 / (2/tiers.Site.BandwidthBps + 1/tiers.WAN.BandwidthBps)},
	}
}

// tier is the tier a directed link crosses: 0 within a site, 1 across the
// WAN.
func (r *Router) tier(from, to int) int {
	if r.topo.SameSite(from, to) {
		return 0
	}
	return 1
}

// Route prices m, stamps its arrival time, and accounts the transfer.
func (r *Router) Route(m *Message) {
	if m.Payload < 0 {
		panic(fmt.Sprintf("scale: negative payload %d", m.Payload))
	}
	tier := r.tier(m.From, m.To)
	xmit := time.Duration(float64(m.Payload) / r.bw[tier] * float64(time.Second))
	m.Arrive = m.Send + r.lat[tier] + xmit
	r.tierMsgs[tier]++
	r.tierBytes[tier] += m.Payload
	r.tierBusy[tier] += xmit
}

// Busy returns cumulative backbone transmission time; against elapsed
// virtual time it gives backbone utilization.
func (r *Router) Busy() time.Duration { return r.tierBusy[0] + r.tierBusy[1] }

// TierTraffic returns one tier's accounting: messages, payload bytes and
// cumulative transmission time. wan=false is the site tier (intra-site
// and flat-topology links), wan=true the inter-site WAN trunk.
func (r *Router) TierTraffic(wan bool) (msgs, bytes int64, busy time.Duration) {
	tier := 0
	if wan {
		tier = 1
	}
	return r.tierMsgs[tier], r.tierBytes[tier], r.tierBusy[tier]
}
