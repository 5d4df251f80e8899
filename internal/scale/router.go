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
	// Server is the destination server within the target shard.
	Server int16
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
// message and accounts the traffic in total and per tier. Pricing is
// layered, bottom up:
//
//  1. Flat topology: every link costs RouterConfig.Latency and transmits
//     at RouterConfig.BandwidthBps.
//  2. Hierarchical topology: an intra-site link costs one Site-tier hop;
//     a cross-site link store-and-forwards through source site backbone →
//     WAN trunk → destination site backbone, so its latency is
//     2·Site.Latency + WAN.Latency and its transmission time sums the
//     per-hop Payload/Bandwidth costs.
//  3. RouterConfig.LinkLatency, when set, overrides the latency of any
//     individual directed link (the bandwidth keeps its tier pricing).
//
// Whatever the layers produce becomes the per-link latency matrix the
// channel-clock executor uses as lookahead, so a WAN link's high price is
// also a wide parallelism window. Routing happens only at round exchanges
// on the coordinator goroutine, so Router needs no locking.
type Router struct {
	lat [][]time.Duration // [from][to] store-and-forward latency
	bw  [][]float64       // [from][to] effective end-to-end bandwidth
	wan [][]bool          // [from][to] link crosses the WAN tier

	msgs  int64
	bytes int64
	busy  time.Duration

	// Per-tier accounting: index 0 = site tier (intra-site and flat
	// links), 1 = WAN tier (cross-site links).
	tierMsgs  [2]int64
	tierBytes [2]int64
	tierBusy  [2]time.Duration
}

// NewRouter returns a router joining the topology's segments, pricing
// each directed link from the tier table (or uniformly from cfg for a
// flat topology).
func NewRouter(cfg RouterConfig, tiers TiersConfig, topo Topology) *Router {
	n := topo.NumShards()
	r := &Router{
		lat: make([][]time.Duration, n),
		bw:  make([][]float64, n),
		wan: make([][]bool, n),
	}
	for i := 0; i < n; i++ {
		r.lat[i] = make([]time.Duration, n)
		r.bw[i] = make([]float64, n)
		r.wan[i] = make([]bool, n)
		for j := 0; j < n; j++ {
			lat := cfg.Latency
			bw := cfg.BandwidthBps
			if topo.Sites > 1 && i != j {
				if topo.SameSite(i, j) {
					lat = tiers.Site.Latency
					bw = tiers.Site.BandwidthBps
				} else {
					// Store-and-forward: site backbone up, WAN trunk
					// across, site backbone down. The effective bandwidth
					// is the harmonic combination of the three hops, so
					// transmission time stays Payload/bw like a flat link.
					lat = 2*tiers.Site.Latency + tiers.WAN.Latency
					bw = 1 / (2/tiers.Site.BandwidthBps + 1/tiers.WAN.BandwidthBps)
					r.wan[i][j] = true
				}
			}
			if cfg.LinkLatency != nil && i != j {
				lat = cfg.LinkLatency(i, j)
			}
			r.lat[i][j] = lat
			r.bw[i][j] = bw
		}
	}
	return r
}

// MinLatency is the directed link's store-and-forward latency: the floor
// on how long a message from one shard takes to reach another, and so the
// executor's per-link lookahead. Payload transmission only adds to it.
func (r *Router) MinLatency(from, to int) time.Duration { return r.lat[from][to] }

// Route prices m, stamps its arrival time, and accounts the transfer.
func (r *Router) Route(m *Message) {
	if m.Payload < 0 {
		panic(fmt.Sprintf("scale: negative payload %d", m.Payload))
	}
	xmit := time.Duration(float64(m.Payload) / r.bw[m.From][m.To] * float64(time.Second))
	m.Arrive = m.Send + r.lat[m.From][m.To] + xmit
	r.msgs++
	r.bytes += m.Payload
	r.busy += xmit
	tier := 0
	if r.wan[m.From][m.To] {
		tier = 1
	}
	r.tierMsgs[tier]++
	r.tierBytes[tier] += m.Payload
	r.tierBusy[tier] += xmit
}

// Msgs returns the total messages routed.
func (r *Router) Msgs() int64 { return r.msgs }

// Busy returns cumulative backbone transmission time; against elapsed
// virtual time it gives backbone utilization.
func (r *Router) Busy() time.Duration { return r.busy }

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
