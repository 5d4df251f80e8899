// Package scale grows the measured 40-workstation, one-Ethernet cluster
// into a sharded topology — many Ethernet segments, each with its own
// server group and community slice, joined by an inter-segment router —
// and runs it on a deterministic parallel executor.
//
// The topology is declarative: Config names the paper's community, a
// population multiplier, a shard count grouped into sites, and one price
// table (latency and bandwidth of the site and WAN tiers; a flat topology
// is one site). New instantiates one hermetic cluster
// (simulator, netsim segment, servers, clients, workload engine) per
// shard plus a static file→(shard, server) placement map of the files
// visible across segments. A configurable slice of each shard's traffic
// crosses the router to remote shards (reads of shared artifacts, writes
// into remote logs), so segments are coupled exactly the way wide-area
// successors of Sprite couple their sites.
//
// The executor is a conservative parallel discrete-event scheme built on
// per-link channel clocks (null-message style): each link's latency is a
// hard lower bound on cross-shard message delay, so each round every
// shard advertises a floor on its next possible send, the floors relax
// through the cheapest-latency path matrix (bounding reply chains), and
// every shard advances to the minimum of its inbound channel clocks —
// not to the global minimum the old epoch barrier forced. Both minima are
// evaluated per link class, a group of shards the latency matrices
// cannot tell apart (one per site on a tiered topology, one per shard on
// an arbitrary matrix), so a round costs O(shards + classes²). Clock
// advances on links that carry no payload are the protocol's null
// messages; they keep idle links from stalling the pipeline, and a
// serialized stall-breaker restores progress on zero-latency links. The
// calling goroutine counts as one worker: it publishes each round's shard
// jobs as one atomic claim word, claims jobs from it alongside Workers-1
// helper goroutines (none at one worker, where the round runs in shard
// order), and once the last job finishes it routes the round's outboxes
// and delivers them in sorted (arrival, shard, seq) order. Because shards
// share no mutable state and the exchange is totally ordered, the
// parallel run is byte-identical to the sequential one at any worker
// count and GOMAXPROCS — the property TestParallelMatchesSequential and
// the determinism fuzz suite pin down and `make scalecheck` guards under
// the race detector.
package scale
