package scale

import (
	"fmt"
	"runtime"
	"strconv"
	"time"

	"spritefs/internal/cluster"
	"spritefs/internal/metrics"
	"spritefs/internal/sim"
	"spritefs/internal/stats"
	"spritefs/internal/workload"
)

// ExecStats counts what the channel-clock executor did. Every field is a
// pure function of the topology and seeds — wall-clock time lives in
// RunStats, not here — so ExecStats participates in the byte-identity
// guarantee.
type ExecStats struct {
	// Rounds is the number of channel-clock synchronization rounds: one
	// bound computation, shard advance and message exchange each.
	Rounds int64
	// Routed is the number of cross-shard messages exchanged and
	// RoutedBytes their total backbone payload: the router's tier
	// counters, summed once when the run ends.
	Routed      int64
	RoutedBytes int64
	// Undelivered counts messages still in flight when the drain window
	// closed (they arrive after the simulation's end and are dropped).
	Undelivered int64
	// NullAdvances counts per-link channel-clock advances that carried no
	// payload message — the protocol's null messages. They are what keeps
	// idle links from stalling the pipeline.
	NullAdvances int64
	// Rescues counts stall-breaker rounds: when zero-latency links leave
	// the executor no lookahead at all, the globally earliest shard is
	// serialized one event forward to restore progress.
	Rescues int64
	// MsgAllocs always reads 0: the executor keeps no message free list
	// to miss. It stays for the benchmark's scale.msg_allocs column
	// (docs/FIDELITY.md, BENCH-PINNED).
	MsgAllocs int64
}

// RunOptions selects the executor. The default (zero value) is the
// sequential executor: the shards start, and every round runs them, in
// index order on the calling goroutine. Parallel shares the start and each
// round out among Workers workers, the calling goroutine and Workers-1
// helper goroutines, with an exchange at every round boundary; reports and
// metric dumps are byte-identical either way.
type RunOptions struct {
	// Horizon is the measured duration (0 = one hour). The clock then
	// advances cluster.DrainTime further so in-flight work settles, as in
	// a single-segment run.
	Horizon time.Duration
	// Parallel selects the parallel shard executor.
	Parallel bool
	// Workers bounds the parallel executor's workers, the calling
	// goroutine counted (0 = GOMAXPROCS, capped at the shard count; 1 is
	// the sequential schedule). Ignored when Parallel is false.
	Workers int
}

// RunStats reports a finished run. Wall, Busy, Critical and Serial are
// measured host time and vary run to run; everything else is
// deterministic.
type RunStats struct {
	Wall time.Duration
	// Busy is the wall-clock time shard jobs ran, summed over jobs;
	// Busy/Wall is the parallelism the run achieved.
	Busy time.Duration
	// Critical sums each round's longest job; Busy/Critical bounds what
	// any number of workers could achieve on these rounds.
	Critical time.Duration
	// Serial is the calling goroutine's wall-clock time between rounds,
	// when no shard job runs: floors, bounds and the exchange.
	// Serial/Wall is the share of the run no worker count can shrink.
	Serial  time.Duration
	Workers int // workers used, the calling goroutine counted (0 = sequential)
	// Events is the number of simulator events the shards ran, summed over
	// shards; Wall/Events is wall-clock per simulated event.
	Events uint64
	Exec   ExecStats
}

// Engine is an instantiated sharded topology plus its executor state.
type Engine struct {
	Cfg       Config
	Shards    []*Shard
	Router    *Router
	Placement *Placement
	// topo is the shard grid (sites × segments-per-site).
	topo Topology
	// Reg is the run's one metric registry (the shard clusters keep none):
	// every shard's component stack registered under a shard="N" label,
	// plus the router and executor families.
	Reg *metrics.Registry

	exec    ExecStats
	horizon time.Duration
	ran     bool

	// Executor scratch, sized at Run so rounds allocate nothing.
	floor []sim.Time // per-shard future-send infimum, replies included
	// mins is a per-shard vector folded per site: the earliest sends
	// while the floors are computed, then the floors.
	mins siteMins
	// topFloor is each shard's highest floor so far (-never before the
	// first exchange). A link's channel clock is its sender's floor plus
	// its latency, so the last clock a shard advertised on a link is
	// max(0, satAdd(topFloor, latency)).
	topFloor []sim.Time
	byDest   [][]*Message // per-destination delivery batches
	jobs     []shardJob   // the round being run; the pool's jobs index it
	// advance records per-shard virtual-time advance widths, one sample
	// per shard per round it ran; a deterministic measure of how much
	// lookahead the channel clocks actually bought.
	advance stats.Welford
	// minLook is the smallest directed-link latency — the tightest
	// lookahead anywhere in the topology.
	minLook time.Duration
}

// New instantiates the topology: the community is scaled to Factor× the
// paper's population, split site-major across the shard grid (SplitSite
// then Split, so a segment's community is a pure function of the base
// seed, its site and its index), and each segment gets a hermetic
// cluster. The placement ring and tiered router are built, and every
// component registers into the engine-wide metric registry.
func New(cfg Config) (*Engine, error) {
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	topo := cfg.topology()
	total := workload.ScaleCommunity(cfg.Base, cfg.Factor)
	e := &Engine{Cfg: cfg, topo: topo, Router: NewRouter(cfg.Tiers, topo)}
	for i := 0; i < cfg.Shards; i++ {
		site, seg := topo.SiteOf(i), i%topo.SegsPerSite
		p := workload.Split(workload.SplitSite(total, topo.Sites, site), topo.SegsPerSite, seg)
		ccfg := cluster.DefaultConfig(p)
		ccfg.CollectTrace = false
		ccfg.SamplePeriod = 0
		ccfg.NumServers = cfg.ServersPerShard
		if cfg.Tune != nil {
			cfg.Tune(i, &ccfg)
		}
		ccfg.ExternalRegistry = true // registerMetrics is the shard's one registration pass
		sh := &Shard{
			ID:  i,
			C:   cluster.New(ccfg),
			rng: sim.NewRand(p.Seed ^ remoteSeedSalt),
			eng: e,
		}
		e.Shards = append(e.Shards, sh)
	}
	e.Placement = buildPlacement(topo, e.Shards)
	e.Reg = metrics.New()
	e.registerMetrics()
	return e, nil
}

// MustNew is New for tests and examples with known-good configurations.
func MustNew(cfg Config) *Engine {
	e, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return e
}

// Clients returns the total client count across shards.
func (e *Engine) Clients() int {
	n := 0
	for _, sh := range e.Shards {
		n += len(sh.C.Clients)
	}
	return n
}

// shardJob is one shard's piece of a dispatch: advance to the bound its
// inbound channel clocks permit, or — once, before the first round — start
// its daemons, community and remote generator for a run of length end.
// Either touches that shard's cluster only, so jobs of one dispatch can
// run on any goroutines in any order.
type shardJob struct {
	sh    *Shard
	end   sim.Time
	start bool
	took  time.Duration // the job's wall-clock time, once it ran
}

func (j shardJob) do() {
	if j.start {
		j.sh.C.Start(j.end)
		j.sh.startRemote(j.end)
	} else {
		j.sh.advanceTo(j.end)
	}
}

// satAdd adds a non-negative delay to a virtual time, saturating at the
// never sentinel instead of overflowing.
func satAdd(t sim.Time, d time.Duration) sim.Time {
	if t >= never-d {
		return never
	}
	return t + d
}

// Run executes the topology to opts.Horizon plus the drain window and
// returns the run's statistics. An engine runs once; reuse is a bug.
func (e *Engine) Run(opts RunOptions) RunStats {
	if e.ran {
		panic("scale: engine already ran")
	}
	e.ran = true
	horizon := opts.Horizon
	if horizon <= 0 {
		horizon = time.Hour
	}
	e.horizon = horizon

	workers := 0
	if opts.Parallel {
		workers = opts.Workers
		if workers <= 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		if workers > len(e.Shards) {
			workers = len(e.Shards)
		}
	}

	start := time.Now()
	e.initExecutor()

	pool := newRoundPool(workers - 1)
	defer pool.stop()
	var busy, critical time.Duration
	do := func(i int) {
		j := &e.jobs[i]
		t := time.Now()
		j.do()
		j.took = time.Since(t)
	}
	run := func(jobs []shardJob) {
		e.jobs = jobs
		pool.run(len(jobs), do)
		var longest time.Duration
		for _, j := range jobs {
			busy += j.took
			longest = max(longest, j.took)
		}
		critical += longest
	}

	// Start every shard. At a large population this is a visible share of
	// the run (every system process pages its code in through a cold
	// cache), so it goes through the pool like a round does.
	jobs := e.jobs[:0]
	for _, sh := range e.Shards {
		jobs = append(jobs, shardJob{sh: sh, end: horizon, start: true})
	}
	run(jobs)

	// Phase 1: the measured window.
	serial := e.runPhase(horizon, run)
	// Phase 2: daemons and samplers stop at the horizon, exactly as in a
	// single-segment run, then in-flight work drains.
	for _, sh := range e.Shards {
		sh.C.Finish()
	}
	serial += e.runPhase(horizon+cluster.DrainTime, run)
	var events uint64
	for _, sh := range e.Shards {
		e.exec.Undelivered += int64(len(sh.inbox))
		events += sh.C.Sim.Fired()
	}
	for tier := range e.Router.tierMsgs {
		e.exec.Routed += e.Router.tierMsgs[tier]
		e.exec.RoutedBytes += e.Router.tierBytes[tier]
	}
	return RunStats{Wall: time.Since(start), Busy: busy, Critical: critical, Serial: serial,
		Workers: workers, Events: events, Exec: e.exec}
}

// initExecutor sizes the per-round scratch and reads the tightest
// lookahead off the router's two tier prices.
func (e *Engine) initExecutor() {
	n := len(e.Shards)
	e.floor = make([]sim.Time, n)
	e.mins = newSiteMins(e.topo, n, e.Router.lat)
	e.topFloor = make([]sim.Time, n)
	for i := range e.topFloor {
		e.topFloor[i] = -never
	}
	e.byDest = make([][]*Message, n)
	e.jobs = make([]shardJob, 0, n)

	// A cross-site link costs two site hops and the WAN, never less than
	// one site hop, so the site tier is the cheapest link wherever a site
	// has two segments. A single shard has no link.
	switch {
	case n == 1:
		e.minLook = 0
	case e.topo.SegsPerSite > 1:
		e.minLook = e.Router.lat[0]
	default:
		e.minLook = e.Router.lat[1]
	}
}

// runPhase executes channel-clock rounds until no shard has work at or
// before `until`, then aligns every shard's clock to exactly `until`. It
// returns the wall-clock time it spent outside run: two clock reads a
// round.
//
// Each round the coordinator snapshots every shard's earliest possible
// send (the remote generator's next fire or the inbox head — both known
// ahead of running), lowers each to the earliest reply a request from
// another shard could force out of it, so reply chains are bounded too,
// and derives each shard's safe bound from its inbound channel clocks
// alone: a shard may advance while min over links of (sender's floor +
// link latency) exceeds its next event. No relay path undercuts a direct
// link, so one hop bounds every chain. Shards far (in latency) from the
// current bottleneck therefore run far ahead of it instead of marching in
// lockstep to the global minimum, which is what the old epoch barrier
// forced. Only shards with work at or before their bound are dispatched;
// the rest cost nothing. Both minima over links are taken per site
// (links.go): over the other sites' smallest snapshot, shared by every
// shard, and over the shard's own site without the shard itself, so a
// round costs O(shards + sites), not O(shards²).
func (e *Engine) runPhase(until sim.Time, run func(jobs []shardJob)) (serial time.Duration) {
	mark := time.Now()
	for {
		// Channel-clock floors: first what each shard's pending state can
		// send, then lowered in place to the earliest reply any future
		// request chain could force out of it.
		for i, sh := range e.Shards {
			e.floor[i] = sh.earliestSend()
		}
		e.mins.fold(e.floor)
		for i, es := range e.floor {
			e.floor[i] = min(es, e.mins.inbound(i))
		}
		e.mins.fold(e.floor)
		if checkRound != nil {
			checkRound(e, until)
		}

		jobs := e.jobs[:0]
		stalled := false
		for j, sh := range e.Shards {
			t, ok := sh.nextAt()
			if !ok || t > until {
				continue
			}
			if bound := e.bound(j, until); t <= bound {
				jobs = append(jobs, shardJob{sh: sh, end: bound})
			} else {
				stalled = true
			}
		}

		if len(jobs) == 0 {
			if !stalled {
				break
			}
			// Zero-lookahead stall: some link offers no window at all.
			// The globally earliest event is still safe to run — nothing
			// can arrive strictly before it — so serialize that one shard
			// (lowest shard id on ties) exactly one event time forward.
			var best *Shard
			var bt sim.Time
			for _, sh := range e.Shards {
				if t, ok := sh.nextAt(); ok && t <= until && (best == nil || t < bt) {
					best, bt = sh, t
				}
			}
			jobs = append(jobs, shardJob{sh: best, end: bt})
			e.exec.Rescues++
		}

		for _, j := range jobs {
			e.advance.Add(float64(j.end - j.sh.ranTo))
			j.sh.ranTo = j.end
		}
		serial += time.Since(mark)
		run(jobs)
		mark = time.Now()
		e.exchange()
	}
	serial += time.Since(mark)
	for _, sh := range e.Shards {
		sh.C.Sim.RunUntil(until)
	}
	return serial
}

// bound is how far shard j may safely advance this round: to until, but
// strictly before the earliest channel clock on its inbound links — an
// arrival exactly at the clock (zero-latency link, zero transmission time)
// must not be missed.
func (e *Engine) bound(j int, until sim.Time) sim.Time {
	return min(until, e.mins.inbound(j)-1)
}

// exchange routes every outbox emitted during the round and delivers the
// messages to their destination inboxes. Iteration is in shard order and
// per-shard emission order, and destinations re-sort by (Arrive, From,
// Seq), so the exchange is identical regardless of which goroutines ran
// the round. Links whose channel clock advanced without carrying a
// payload message are counted as null advances — the protocol's null
// messages. A sender's links in one tier share a latency, so their clocks
// rise together, and the count per tier is its links there less the
// destinations the round's messages reached. Outboxes drain in shard
// order, so a sender's messages to one destination lie together at the
// end of that destination's batch, and the first of them is the one the
// batch does not end with.
func (e *Engine) exchange() {
	e.exec.Rounds++
	n := len(e.Shards)
	links := [2]int{e.topo.SegsPerSite - 1, n - e.topo.SegsPerSite} // out of each shard, per tier
	var nulls int64
	for i, sh := range e.Shards {
		out := sh.takeOutbox()
		var reached [2]int // distinct destinations other than i, per tier
		for _, m := range out {
			if m.To < 0 || m.To >= n {
				panic(fmt.Sprintf("scale: message to unknown shard %d", m.To))
			}
			e.Router.Route(m)
			batch := e.byDest[m.To]
			if m.To != i && (len(batch) == 0 || batch[len(batch)-1].From != i) {
				reached[e.Router.tier(i, m.To)]++
			}
			e.byDest[m.To] = append(batch, m)
		}
		// At the start of the run, or near the never sentinel, one tier's
		// clocks may rise while the other's do not.
		if f, top := e.floor[i], e.topFloor[i]; f > top {
			for t, l := range e.Router.lat {
				if satAdd(f, l) > max(0, satAdd(top, l)) {
					nulls += int64(links[t] - reached[t])
				}
			}
			e.topFloor[i] = f
		}
	}
	e.exec.NullAdvances += nulls
	if checkExchange != nil {
		checkExchange(e, nulls)
	}
	for i, msgs := range e.byDest {
		e.Shards[i].enqueue(msgs)
		e.byDest[i] = e.byDest[i][:0]
	}
}

// Test-only oracle hooks, nil outside this package's tests: checkRound
// sees each round's floors and site minima before any shard is
// dispatched, checkExchange each exchange's routed batches and null
// advances before they are delivered.
var (
	checkRound    func(e *Engine, until sim.Time)
	checkExchange func(e *Engine, nulls int64)
)

// registerMetrics builds the engine-wide registry, the only place a shard's
// components register: per-shard component stacks under shard="N",
// per-shard remote-traffic counters, and the router/executor families. A
// shard's workstations and servers register as populations, one column per
// family over the live slice, so the registry's size does not grow with the
// clients. With LeanMetrics the client columns are skipped, and with them
// the per-client series a full export would render (about 67 a
// workstation), while everything aggregated (servers, networks,
// simulators, scale families) still registers. The shards' workload
// engines never register.
func (e *Engine) registerMetrics() {
	ctr := func(r *metrics.Registry, name, unit, help string, v *int64) {
		r.IntVar(metrics.Desc{Name: name, Unit: unit, Help: help, Kind: metrics.Counter}, nil, v)
	}
	for i, sh := range e.Shards {
		scoped := e.Reg.Scoped(metrics.L("shard", strconv.Itoa(i)))
		clients := &sh.C.Clients
		if e.Cfg.LeanMetrics {
			clients = nil
		}
		cluster.RegisterComponents(scoped, sh.C.Sim, clients, sh.C.Servers, sh.C.Net, sh.C.Injector)

		ctr(scoped, "spritefs_scale_remote_ops_issued_total", "ops",
			"Cross-segment operations this shard's clients issued.",
			&sh.remote.OpsIssued)
		ctr(scoped, "spritefs_scale_remote_ops_served_total", "ops",
			"Cross-segment operations this shard's servers answered.",
			&sh.remote.OpsServed)
		ctr(scoped, "spritefs_scale_remote_replies_total", "ops",
			"Remote-operation completions received back at this shard.",
			&sh.remote.Replies)
		ctr(scoped, "spritefs_scale_remote_read_bytes_total", "bytes",
			"Logical bytes read from remote shards by this shard's clients.",
			&sh.remote.BytesIn)
		ctr(scoped, "spritefs_scale_remote_write_bytes_total", "bytes",
			"Logical bytes written to remote shards by this shard's clients.",
			&sh.remote.BytesOut)
		scoped.HistSecondsVar(metrics.Desc{Name: "spritefs_scale_remote_latency_seconds",
			Help: "End-to-end remote operation latency (request issue to reply arrival)."},
			nil, &sh.remote.Latency)
		if e.topo.Sites > 1 {
			ctr(scoped, "spritefs_scale_cross_site_ops_total", "ops",
				"Cross-site operations this shard's clients issued (requests that traverse the WAN tier).",
				&sh.remote.CrossSiteOps)
			scoped.HistSecondsVar(metrics.Desc{Name: "spritefs_scale_wan_latency_seconds",
				Help: "End-to-end latency of remote operations whose replies crossed the WAN tier."},
				nil, &sh.remote.WANLatency)
		}
	}

	e.Reg.Int(metrics.Desc{Name: "spritefs_scale_sites", Unit: "sites",
		Help: "Sites in the hierarchical topology (1 = flat single-site).",
		Kind: metrics.Gauge},
		nil, func() int64 { return int64(e.topo.Sites) })
	for tier, label := range [2]string{"site", "wan"} {
		lbl := metrics.Labels{metrics.L("tier", label)}
		e.Reg.IntVar(metrics.Desc{Name: "spritefs_scale_tier_msgs_total", Unit: "msgs",
			Help: "Messages carried per topology tier (site = intra-site backbone, wan = inter-site trunk).",
			Kind: metrics.Counter},
			lbl, &e.Router.tierMsgs[tier])
		e.Reg.IntVar(metrics.Desc{Name: "spritefs_scale_tier_bytes_total", Unit: "bytes",
			Help: "Payload bytes carried per topology tier.",
			Kind: metrics.Counter},
			lbl, &e.Router.tierBytes[tier])
		e.Reg.SecondsVar(metrics.Desc{Name: "spritefs_scale_tier_busy_seconds",
			Help: "Cumulative transmission time per topology tier; against elapsed virtual time it gives tier utilization.",
			Kind: metrics.Counter},
			lbl, &e.Router.tierBusy[tier])
	}
	ctr(e.Reg, "spritefs_scale_rounds_total", "rounds",
		"Channel-clock synchronization rounds the executor ran.",
		&e.exec.Rounds)
	ctr(e.Reg, "spritefs_scale_null_advances_total", "advances",
		"Per-link channel-clock advances that carried no payload message (null messages).",
		&e.exec.NullAdvances)
	ctr(e.Reg, "spritefs_scale_rescues_total", "rounds",
		"Stall-breaker rounds serializing the earliest shard past a zero-lookahead link.",
		&e.exec.Rescues)
	ctr(e.Reg, "spritefs_scale_undelivered_msgs_total", "msgs",
		"Messages still in flight when the drain window closed.",
		&e.exec.Undelivered)
	e.Reg.SecondsVar(metrics.Desc{Name: "spritefs_scale_min_link_lookahead_seconds",
		Help: "Smallest directed-link latency in the topology — the tightest lookahead the channel clocks work with.",
		Kind: metrics.Gauge},
		nil, &e.minLook)
	e.Reg.HistSecondsVar(metrics.Desc{Name: "spritefs_scale_advance_seconds",
		Help: "Virtual time a shard advanced per round it ran — how much lookahead the per-link channel clocks bought."},
		nil, &e.advance)
}
