package scale

import (
	"flag"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"spritefs/internal/sim"
	"spritefs/internal/workload"
)

// TestMain installs the pairwise oracle for every test of the package, so
// the determinism fuzz, the pinned digests and every other run check each
// round's per-site computations against the all-pairs ones. Benchmarks run
// without it: they measure the executor, not the oracle.
func TestMain(m *testing.M) {
	flag.Parse()
	if flag.Lookup("test.bench").Value.String() == "" {
		checkRound, checkExchange = pairwiseRound, pairwiseExchange
	}
	os.Exit(m.Run())
}

// pairwise is the oracle's state for the engine whose run it is checking:
// its own per-link channel clocks, and how many rounds and exchanges it
// checked. The package's tests run one engine at a time.
var pairwise struct {
	sync.Mutex
	e                 *Engine
	dist              []sim.Time // [n*n] cheapest-path latency
	prevCC            []sim.Time // [n*n] last advertised clock per link
	rounds, exchanges int64
}

// pairwiseFor resets the oracle's state when it first sees e, which must
// then have finished no exchange.
func pairwiseFor(e *Engine, exchanged int64) {
	if pairwise.e == e {
		return
	}
	if exchanged != 0 {
		panic("scale oracle: engines' runs interleaved")
	}
	n := len(e.Shards)
	pairwise.e, pairwise.prevCC = e, make([]sim.Time, n*n)
	pairwise.dist = cheapestPaths(e)
	pairwise.rounds, pairwise.exchanges = 0, 0
}

// linkLatency is the router's price of the directed link from one shard to
// another: its tier's latency.
func linkLatency(e *Engine, from, to int) time.Duration {
	return e.Router.lat[e.Router.tier(from, to)]
}

// cheapestPaths returns e's all-pairs cheapest-latency matrix ([n*n],
// diagonal 0) over its directed link latencies. A future send can be a
// reply at the end of a request chain, so the safe lower bound on a link
// is the cheapest multi-hop path; the engine bounds it by the direct link
// alone, and the oracle's Floyd–Warshall holds it to that: no relay path
// may undercut a direct link's tier price.
func cheapestPaths(e *Engine) []sim.Time {
	n := len(e.Shards)
	dist := make([]sim.Time, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				dist[i*n+j] = sim.Time(linkLatency(e, i, j))
			}
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j && i != k && j != k {
					dist[i*n+j] = min(dist[i*n+j], satAdd(dist[i*n+k], time.Duration(dist[k*n+j])))
				}
			}
		}
	}
	return dist
}

// pairwiseRound recomputes every shard's floor and bound over all links
// and requires the engine's per-site computation to agree.
func pairwiseRound(e *Engine, until sim.Time) {
	pairwise.Lock()
	defer pairwise.Unlock()
	pairwiseFor(e, e.exec.Rounds)
	pairwise.rounds++
	n := len(e.Shards)
	es := make([]sim.Time, n)
	for i, sh := range e.Shards {
		es[i] = sh.earliestSend()
	}
	for i := 0; i < n; i++ {
		f := es[i]
		for k := 0; k < n; k++ {
			if k != i {
				f = min(f, satAdd(es[k], time.Duration(pairwise.dist[k*n+i])))
			}
		}
		if f != e.floor[i] {
			panic(fmt.Sprintf("scale oracle: round %d shard %d floor %d, pairwise %d", e.exec.Rounds, i, e.floor[i], f))
		}
	}
	for j := 0; j < n; j++ {
		b := until
		for i := 0; i < n; i++ {
			if i != j {
				b = min(b, satAdd(e.floor[i], linkLatency(e, i, j))-1)
			}
		}
		if got := e.bound(j, until); got != b {
			panic(fmt.Sprintf("scale oracle: round %d shard %d bound %d, pairwise %d", e.exec.Rounds, j, got, b))
		}
	}
}

// pairwiseExchange counts the exchange's null advances link by link: a
// link's clock rose and no message of the round's batches crossed it.
func pairwiseExchange(e *Engine, nulls int64) {
	pairwise.Lock()
	defer pairwise.Unlock()
	pairwiseFor(e, e.exec.Rounds-1)
	pairwise.exchanges++
	n := len(e.Shards)
	sent := make([]bool, n*n)
	for _, batch := range e.byDest {
		for _, m := range batch {
			sent[m.From*n+m.To] = true
		}
	}
	var want int64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if cc := satAdd(e.floor[i], linkLatency(e, i, j)); cc > pairwise.prevCC[i*n+j] {
				pairwise.prevCC[i*n+j] = cc
				if !sent[i*n+j] {
					want++
				}
			}
		}
	}
	if nulls != want {
		panic(fmt.Sprintf("scale oracle: exchange %d counted %d null advances, pairwise %d", e.exec.Rounds, nulls, want))
	}
}

// oracleConfig is a small topology of shards segments over sites sites,
// with remote traffic frequent enough that most rounds exchange messages.
func oracleConfig(shards, sites int) Config {
	p := workload.Default(int64(100*shards + sites))
	p.NumClients = 3 * shards
	p.DailyUsers = 2 * shards
	p.OccasionalUsers = shards - 1
	p.BigSimUsers = 1
	remote := DefaultRemote()
	remote.OpsPerClientHour = 300
	return Config{Base: p, Shards: shards, Sites: sites, ServersPerShard: 1, Remote: remote}
}

// TestSiteMinsOracle runs tiered multi-site topologies, one of one segment
// per site, a flat one and a one-shard one with the pairwise oracle
// checking every round, and requires that the oracle saw every round and
// exchange of the run.
func TestSiteMinsOracle(t *testing.T) {
	if checkRound == nil {
		t.Fatal("the pairwise oracle is not installed")
	}
	for _, tc := range []struct{ shards, sites, workers int }{
		{16, 4, 1}, {16, 4, 4}, {40, 4, 2}, {12, 12, 2}, {8, 1, 2}, {1, 1, 1},
	} {
		e := MustNew(oracleConfig(tc.shards, tc.sites))
		st := e.Run(RunOptions{Horizon: 10 * time.Minute, Parallel: true, Workers: tc.workers})
		name := fmt.Sprintf("%d shards, %d sites", tc.shards, tc.sites)
		if tc.shards > 1 && (st.Exec.Routed == 0 || st.Exec.NullAdvances == 0) {
			t.Errorf("%s: %+v; the run exercises no exchange", name, st.Exec)
		}
		pairwise.Lock()
		if pairwise.e != e || pairwise.exchanges != st.Exec.Rounds || pairwise.rounds < st.Exec.Rounds {
			t.Errorf("%s: oracle checked %d rounds and %d exchanges of %d", name, pairwise.rounds, pairwise.exchanges, st.Exec.Rounds)
		}
		pairwise.Unlock()
	}
}

// TestExchangeNullAdvances drives exchanges by hand on a 4-shard, 2-site
// topology (sites {0,1} and {2,3}) with the floors set directly. With
// default prices every clock rises at the first exchange, so each of the
// 12 links is a null advance unless the round's messages crossed it; a
// second message on a link and a message to the sender itself cross no
// new link. With a zero-latency site tier some of a sender's clocks rise
// while others do not: intra-site clocks stay at 0 under a floor of 0, and
// cross-site clocks saturate at never before intra-site ones do.
func TestExchangeNullAdvances(t *testing.T) {
	engine := func(cfg Config) (send func(from, to int), exchange func(floors ...sim.Time) int64) {
		e := MustNew(cfg)
		e.initExecutor()
		send = func(from, to int) {
			sh := e.Shards[from]
			sh.send(&Message{To: to, Payload: ctrlBytes})
		}
		exchange = func(floors ...sim.Time) int64 {
			copy(e.floor, floors)
			before := e.exec.NullAdvances
			e.exchange()
			return e.exec.NullAdvances - before
		}
		return send, exchange
	}
	check := func(what string, got, want int64) {
		t.Helper()
		if got != want {
			t.Errorf("%s: %d null advances, want %d", what, got, want)
		}
	}

	send, exchange := engine(oracleConfig(4, 2))
	send(0, 1)
	send(0, 1)
	send(0, 2)
	send(0, 0)
	send(3, 2)
	check("first exchange", exchange(1e9, 1e9, 1e9, 1e9), 12-3)
	check("no clock rose", exchange(1e9, 1e9, 1e9, 1e9), 0)
	send(1, 0)
	check("shard 1's clocks rose", exchange(1e9, 2e9, 1e9, 1e9), 3-1)

	zeroSite := oracleConfig(4, 2)
	zeroSite.Tiers = DefaultTiers()
	zeroSite.Tiers.Site.Latency = 0
	send, exchange = engine(zeroSite)
	send(0, 2)
	check("floors of 0", exchange(0, 0, 0, 0), 4*2-1)
	check("shard 0 near never", exchange(never-1, 0, 0, 0), 3)
	check("shard 0 at never", exchange(never, 0, 0, 0), 1)
}

// TestMinLinkLookahead pins the spritefs_scale_min_link_lookahead_seconds
// gauge at the smallest directed-link latency, zero included: on one
// segment per site, where every link crosses the WAN at 2·Site + WAN, and
// on sites of several segments, where the site tier is the cheapest link.
func TestMinLinkLookahead(t *testing.T) {
	zeroSite := oracleConfig(4, 2)
	zeroSite.Tiers = DefaultTiers()
	zeroSite.Tiers.Site.Latency = 0
	for _, tc := range []struct {
		name string
		cfg  Config
		want time.Duration
	}{
		{"zero tiers, one segment per site", twoSites(0, 0), 0},
		{"zero WAN, one segment per site", twoSites(time.Millisecond, 0), 2 * time.Millisecond},
		{"zero site tier, one segment per site", twoSites(0, 3*time.Millisecond), 3 * time.Millisecond},
		{"one segment per site", twoSites(time.Millisecond, 3*time.Millisecond), 5 * time.Millisecond},
		{"zero-latency site tier", zeroSite, 0},
		{"default tiers", oracleConfig(4, 2), DefaultTiers().Site.Latency},
		{"one shard", oracleConfig(1, 1), 0},
	} {
		e := MustNew(tc.cfg)
		e.initExecutor()
		if e.minLook != tc.want {
			t.Errorf("%s: minimum link lookahead %v, want %v", tc.name, e.minLook, tc.want)
		}
	}
}

// twoSites is a two-shard topology of one segment per site, priced by
// the site and WAN tier latencies given.
func twoSites(site, wan time.Duration) Config {
	cfg := oracleConfig(2, 2)
	cfg.Tiers = DefaultTiers()
	cfg.Tiers.Site.Latency, cfg.Tiers.WAN.Latency = site, wan
	return cfg
}
