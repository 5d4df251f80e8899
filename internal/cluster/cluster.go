// Package cluster assembles the full measured system: four file servers,
// a shared Ethernet, forty diskless client workstations with dynamic file
// caches and virtual memory, the cache-consistency coordinator, the user
// community workload, the kernel tracing machinery (per-server trace
// streams with nightly-backup noise), and the periodic counter sampler
// behind the Section 5 tables. One Cluster is one experiment run.
//
// This is the only place the system is wired. NewSystem builds everything
// but the user community; New adds the community for batch runs, scale
// shards and the live service, and internal/replay drives a NewSystem
// directly, adding workstations as its trace names them.
package cluster

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"spritefs/internal/client"
	"spritefs/internal/faults"
	"spritefs/internal/fscache"
	"spritefs/internal/metrics"
	"spritefs/internal/netsim"
	"spritefs/internal/server"
	"spritefs/internal/sim"
	"spritefs/internal/trace"
	"spritefs/internal/vm"
	"spritefs/internal/workload"
)

// Config selects a cluster experiment.
type Config struct {
	Params workload.Params
	// NumServers is the number of file servers (the paper's cluster had 4,
	// with most traffic on one Sun 4).
	NumServers int
	// CollectTrace enables trace-record collection (Section 4 study).
	CollectTrace bool
	// TraceSink, when set with CollectTrace, receives records instead of
	// the per-server buffers, in emission order (time order), backup noise
	// included: cmd/tracegen writes per-server files, and core's traced
	// runs stream the records to their analysis while the cluster runs.
	// Every record names one of the cluster's servers.
	TraceSink func(trace.Record)
	// SamplePeriod is the counter-sampling interval on the virtual clock
	// (zero disables): the paper's user-level process read the counters
	// "at regular intervals", and Table 4 is a projection of the samples.
	SamplePeriod time.Duration
	// FixedCachePages pins every client cache at a constant size
	// (cache-size sweep ablation). Zero keeps Sprite's dynamic sizing.
	FixedCachePages int
	// WritebackDelay overrides the 30-second delayed-write interval
	// (writeback-delay ablation). Zero keeps the default.
	WritebackDelay time.Duration
	// PrefetchBlocks enables sequential prefetch of that many blocks per
	// miss (prefetch ablation). Zero disables prefetch, as in Sprite.
	PrefetchBlocks int
	// Consistency selects the cache-consistency scheme for every client
	// (live weak-consistency runs; the paper could only simulate this
	// from traces).
	Consistency client.ConsistencyMode
	// PollInterval is the validity window under ConsistencyPoll.
	PollInterval time.Duration
	// Faults is the fault-injection schedule (crashes, partitions, drop
	// and delay windows) driven against the run. Empty injects nothing.
	Faults faults.Schedule
	// MetricsMatch restricts sampling to metric families for which it
	// returns true; nil samples every non-summary family.
	MetricsMatch func(name string) bool
	// ExternalRegistry marks this cluster as a part of a larger run whose
	// assembler registers the components itself (a scale shard: the engine
	// calls RegisterComponents into its own registry under shard="N").
	// Nothing registers into Reg, so Report tables that project it (5, 7,
	// 10, storage, staleness, recovery) read as zero, and SamplePeriod —
	// which would sample that empty registry — makes NewSystem panic.
	ExternalRegistry bool
}

// DefaultConfig returns the paper's cluster: 4 servers, 40 clients, and
// every minute a sample of the counters Table 4 reads, and of no others.
func DefaultConfig(p workload.Params) Config {
	return Config{
		Params:       p,
		NumServers:   4,
		CollectTrace: true,
		SamplePeriod: time.Minute,
		MetricsMatch: Table4Families,
	}
}

// Cluster is one assembled experiment.
type Cluster struct {
	Cfg      Config
	Sim      *sim.Sim
	Net      *netsim.Network
	Servers  []*server.Server
	Engine   *workload.Engine
	Registry *workload.Registry
	// Injector drives Cfg.Faults; nil when the schedule is empty.
	Injector *faults.Injector
	// Metrics holds the workstations, the central metric registry every
	// component registered into at construction (none under
	// Cfg.ExternalRegistry) and the sampler's time series; its report
	// methods are the cluster's.
	Metrics

	// route is ServerFor bound once, so every client shares one func value.
	route func(uint64) *server.Server

	// emit takes each record while tracing is on (nil when it is off):
	// Cfg.TraceSink, or a filing into traces, one buffer per server, which
	// PerServerStreams reads.
	emit   func(trace.Record)
	traces [][]trace.Record

	tickers []*sim.Ticker
	// running is set between StartDaemons and Finish: a workstation added
	// in that window gets a cleaner timer of its own.
	running bool
}

// NewSystem builds the measured system without a user community: the
// simulator, the shared network, the file servers, the fault injector and
// the metric registry, with no workstations yet. New adds the community on
// top; the trace-replay engine instead adds workstations with AddClient as
// the trace names them.
func NewSystem(cfg Config) *Cluster {
	if cfg.NumServers < 1 {
		panic("cluster: need at least one server")
	}
	if cfg.ExternalRegistry && cfg.SamplePeriod > 0 {
		panic("cluster: Config.SamplePeriod would sample the empty registry Config.ExternalRegistry leaves; sample the assembler's registry instead")
	}
	c := &Cluster{
		Cfg: cfg,
		Sim: sim.New(cfg.Params.Seed),
		Net: netsim.New(netsim.DefaultConfig()),
	}
	c.route = c.ServerFor
	c.traces = make([][]trace.Record, cfg.NumServers)
	switch {
	case !cfg.CollectTrace:
	case cfg.TraceSink != nil:
		c.emit = cfg.TraceSink
	default:
		c.emit = func(r trace.Record) { c.traces[r.Server] = append(c.traces[r.Server], r) }
	}
	for i := 0; i < cfg.NumServers; i++ {
		srv := server.New(int16(i))
		// The main server (a Sun 4 with 128 MB) carries most traffic; the
		// others are smaller. Server caches fill nearly all of memory.
		if i == 0 {
			srv.AttachStorage(128 << 20 / 4096)
		} else {
			srv.AttachStorage(64 << 20 / 4096)
		}
		c.Servers = append(c.Servers, srv)
	}
	if !cfg.Faults.Empty() {
		c.Injector = faults.Attach(c, cfg.Faults)
	}
	c.Reg = metrics.New()
	if !cfg.ExternalRegistry {
		RegisterComponents(c.Reg, c.Sim, &c.Clients, c.Servers, c.Net, c.Injector)
	}
	return c
}

// New builds a cluster: the system plus its user community — the file
// population, Params.NumClients workstations and the workload engine. The
// workload is bootstrapped (file population created) but not started;
// call Run.
func New(cfg Config) *Cluster {
	c := NewSystem(cfg)
	p := cfg.Params
	c.Registry = workload.Bootstrap(p, c.Servers, sim.NewRand(p.Seed^0x5eed))
	hosts := make([]workload.Host, p.NumClients)
	for i := range hosts {
		hosts[i] = c.AddClient(int32(i))
	}
	c.Engine = workload.NewEngine(c.Sim, p, c.Registry, hosts)
	if !cfg.ExternalRegistry {
		c.Engine.RegisterMetrics(c.Reg)
	}
	c.Engine.OnMigrate = func(user, pid, from, to int32) {
		c.Emit(trace.Record{
			Time:   c.Sim.Now(),
			Kind:   trace.KindMigrate,
			Flags:  trace.FlagMigrated,
			Client: to,
			User:   user,
			Proc:   pid,
		})
	}
	return c
}

// ServerFor maps a file id to the server that stores it: the server index
// is baked into the id's top bits, and ids naming a server this cluster
// does not have fall back to server 0.
func (c *Cluster) ServerFor(file uint64) *server.Server {
	idx := int(server.HomeOf(file))
	if idx < 0 || idx >= len(c.Servers) {
		idx = 0
	}
	return c.Servers[idx]
}

// AddClient brings up the diskless workstation with the given id, wired to
// the cluster's network, servers and consistency coordinator. It registers
// nothing: the registry's client columns read Clients. Clients stays in
// ascending id order whatever order ids arrive in (the common ascending
// case is a plain append). A workstation added while the daemons are
// running gets its own cleaner timer at once.
func (c *Cluster) AddClient(id int32) *client.Client {
	if id < 0 {
		panic(fmt.Sprintf("cluster: negative client id %d", id))
	}
	cfg := &c.Cfg
	ccfg := client.DefaultConfig(id)
	if id%3 == 0 {
		// Memory sizes vary 24-32 MB across the cluster, as in the paper.
		ccfg.MemoryPages = 32 << 20 / vm.PageSize
	}
	ccfg.FixedCachePages = cfg.FixedCachePages
	ccfg.Consistency = cfg.Consistency
	ccfg.PollInterval = cfg.PollInterval
	// Most traffic lands on server 0; creations go there.
	cl := client.New(ccfg, c.Sim, c.Net, c.route, c.Servers[0], c)
	cl.SetCoordinator(c)
	if cfg.WritebackDelay > 0 {
		cl.Cache.SetWritebackDelay(cfg.WritebackDelay)
	}
	if cfg.PrefetchBlocks > 0 {
		cl.Cache.SetPrefetch(cfg.PrefetchBlocks)
	}
	if n := len(c.Clients); n == 0 || c.Clients[n-1].ID() < id {
		c.Clients = append(c.Clients, cl)
	} else {
		i, found := c.clientIndex(id)
		if found {
			panic(fmt.Sprintf("cluster: client %d added twice", id))
		}
		c.Clients = slices.Insert(c.Clients, i, cl)
	}
	if c.running {
		c.startCleaner(id%cleanerPhases, []*client.Client{cl})
	}
	return cl
}

// cleanerPhases is how many one-second offsets the workstations' 5-second
// delayed-write daemons are spread over (by ID), so the cluster's daemons
// do not fire in lockstep.
const cleanerPhases = int32(fscache.CleanerPeriod / time.Second)

// startCleaner arms the delayed-write daemon of the given workstations,
// which share a phase: one timer, first firing phase seconds from now (so
// a workstation brought up mid-run starts its daemon safely), that walks
// them in order. A CleanTick schedules nothing, so one timer per phase
// fires the workstations in exactly the (time, seq) order one timer each,
// armed back to back, would: at every instant they form one contiguous
// block that any other event falls wholly before or wholly after.
func (c *Cluster) startCleaner(phase int32, members []*client.Client) {
	at := c.Sim.Now() + time.Duration(phase)*time.Second
	c.tickers = append(c.tickers, c.Sim.Every(at, fscache.CleanerPeriod, func() {
		now := c.Sim.Now()
		for _, cl := range members {
			cl.CleanTick(now)
		}
	}))
}

// clientIndex binary-searches the id-ascending client slice.
func (c *Cluster) clientIndex(id int32) (int, bool) {
	return slices.BinarySearchFunc(c.Clients, id, func(cl *client.Client, id int32) int {
		return cmp.Compare(cl.ID(), id)
	})
}

// ClientByID returns the workstation with the given id, or nil when there
// is none (negative ids — the scale gateways' pseudo-clients — included).
// Dense communities (batch, scale shards, live) hit the Clients[id] fast
// path; replay's sparse ids fall back to a binary search.
func (c *Cluster) ClientByID(id int32) *client.Client {
	if id < 0 {
		return nil
	}
	if int(id) < len(c.Clients) && c.Clients[id].ID() == id {
		return c.Clients[id]
	}
	if i, found := c.clientIndex(id); found {
		return c.Clients[i]
	}
	return nil
}

// Emit implements client.Tracer: while tracing is enabled, a record goes
// to the sink, or to the buffer of the server it names.
func (c *Cluster) Emit(rec trace.Record) {
	if c.emit != nil {
		c.emit(rec)
	}
}

// RecallFrom implements client.Coordinator.
func (c *Cluster) RecallFrom(clientID int32, file uint64) {
	if cl := c.ClientByID(clientID); cl != nil {
		cl.FlushForRecall(file)
	}
}

// DisableCaching implements client.Coordinator.
func (c *Cluster) DisableCaching(clients []int32, file uint64) {
	for _, id := range clients {
		if cl := c.ClientByID(id); cl != nil {
			cl.DisableFor(file)
		}
	}
}

// Clock implements faults.System.
func (c *Cluster) Clock() *sim.Sim { return c.Sim }

// Wire implements faults.System.
func (c *Cluster) Wire() *netsim.Network { return c.Net }

// FileServers implements faults.System.
func (c *Cluster) FileServers() []*server.Server { return c.Servers }

// Workstations implements faults.System.
func (c *Cluster) Workstations() []*client.Client { return c.Clients }

// Run executes the experiment for the given duration: cleaner daemons and
// the sampler start, the community runs, and the clock advances
// past the horizon until all activity drains.
func (c *Cluster) Run(duration time.Duration) {
	c.Start(duration)
	c.Sim.RunUntil(duration)
	c.Finish()
	c.Sim.RunUntil(duration + DrainTime)
}

// DrainTime is how far past the measurement horizon the clock advances so
// in-flight programs and final writebacks settle (Run and the scale-out
// executor both use it).
const DrainTime = 10 * time.Minute

// Start schedules everything a run needs — system processes, cleaner
// daemons, the sampler, backups, and the user community — without advancing
// the clock. Callers that drive the clock themselves (the epoch-stepped
// scale-out executor) pair it with Finish; Run wraps the whole sequence.
func (c *Cluster) Start(duration time.Duration) {
	c.StartDaemons()
	if c.Cfg.Params.EmitBackupNoise && c.emit != nil {
		c.scheduleBackups(duration)
	}
	c.Engine.Run(duration)
}

// StartDaemons schedules the standing machinery only — system processes,
// client and server cleaners, and the sampler — without the user
// community or backups. The live-service frontend uses this: its agent
// fleet replaces the synthetic community, but delayed writes, consistency
// and the VM balance still need their daemons. So does trace replay, on a
// system that has no workstations yet: the server cleaners and the sampler
// start here, and AddClient arms each later workstation's cleaner. The
// scheduling order is exactly Start's (event sequence numbers, and so
// replay determinism, depend on it).
func (c *Cluster) StartDaemons() {
	c.running = true
	c.startSystemProcs()
	var cohorts [cleanerPhases][]*client.Client
	for _, cl := range c.Clients {
		p := cl.ID() % cleanerPhases
		cohorts[p] = append(cohorts[p], cl)
	}
	for p, members := range cohorts {
		if len(members) > 0 {
			c.startCleaner(int32(p), members)
		}
	}
	// Server-side cleaners: writebacks reach the disk after the server's
	// own 30-second delay ("an additional 30 seconds later it is written
	// to disk").
	for i, srv := range c.Servers {
		srv := srv
		c.tickers = append(c.tickers, c.Sim.Every(time.Duration(i)*time.Second, 5*time.Second, func() {
			srv.Store.Clean(c.Sim.Now())
		}))
	}
	if c.Cfg.SamplePeriod > 0 {
		c.MetricSampler = metrics.NewSampler(c.Reg, c.Cfg.MetricsMatch)
		c.tickers = append(c.tickers, c.Sim.Every(c.Cfg.SamplePeriod, c.Cfg.SamplePeriod, func() {
			c.MetricSampler.Sample(c.Sim.Now())
		}))
	}
}

// Finish stops the daemons and the sampler at measurement end. The caller
// then advances the clock (by DrainTime past the horizon) so in-flight
// programs and final writebacks drain.
func (c *Cluster) Finish() {
	c.running = false
	for _, tk := range c.tickers {
		tk.Stop()
	}
}

// startSystemProcs gives every workstation its long-lived resident memory
// consumers — the window system, shell, and daemons that occupy a third
// or so of physical memory and are touched continuously. They are what
// keeps the virtual memory system's preference meaningful: without them
// the file cache would swallow nearly all of memory, instead of the
// quarter-to-third the paper measures (Table 4).
func (c *Cluster) startSystemProcs() {
	if c.Registry == nil || len(c.Registry.Binaries) == 0 {
		return // no bootstrapped population (a community-less system)
	}
	rng := c.Sim.Rand()
	for i, cl := range c.Clients {
		cl := cl
		bin := c.Registry.Binaries[i%len(c.Registry.Binaries)]
		pid := int32(-1000 - i)
		// Mostly anonymous (stack/heap) pages: zero-fill, no start-up I/O.
		resident := 1900 + rng.Intn(400) // stack/anonymous share
		cl.ExecProcess(pid, bin.File, bin.CodePages, bin.DataPages, resident, false)
		// Seed the heap so working-set trimming has pages to cycle from
		// the start of the run.
		cl.TouchProcess(pid, 400+rng.Intn(200))
		// Touched regularly so the 20-minute idle rule never lets the
		// file cache steal these pages; a balanced grow/free random walk
		// keeps the FS/VM boundary moving (Table 4's size changes).
		c.tickers = append(c.tickers, c.Sim.Every(time.Duration(i%180)*time.Second, 3*time.Minute, func() {
			switch {
			case rng.Bool(0.25):
				cl.TouchProcess(pid, rng.Intn(64))
			case rng.Bool(0.35):
				cl.VM.Free(pid, rng.Intn(96), c.Sim.Now())
				cl.TouchProcess(pid, 0)
			case rng.Bool(0.5):
				// Working-set trimming: part of the heap goes to the
				// backing file and faults back on the next touch — the
				// steady backing-store traffic of Section 5.3 (about one
				// 4 KB page every few seconds per workstation).
				cl.VM.PageOut(pid, rng.Intn(90), c.Sim.Now())
			default:
				cl.TouchProcess(pid, 0)
			}
		}))
	}
}

// scheduleBackups emits the nightly tape backup's trace noise: a burst of
// self-trace-flagged reads of every file, which the merge step must scrub
// (the paper's merger removed backup records the same way).
func (c *Cluster) scheduleBackups(duration time.Duration) {
	first := 2 * time.Hour
	if first >= duration {
		first = duration / 2 // short runs still exercise the scrub path
	}
	for at := first; at < duration; at += 24 * time.Hour {
		at := at
		c.Sim.At(at, func() {
			now := c.Sim.Now()
			c.Registry.EachFile(func(f uint64) {
				c.Emit(trace.Record{
					Time:   now,
					Kind:   trace.KindRead,
					Flags:  trace.FlagSelfTrace,
					Server: c.ServerFor(f).ID(),
					Client: -1,
					User:   -1,
					File:   f,
					Length: 4096,
				})
			})
		})
	}
}

// PerServerStreams returns the buffered trace of each server, modelling
// the paper's per-server trace files (empty when a sink was used); merging
// them with trace.Merge reconstructs the analysis input.
func (c *Cluster) PerServerStreams() []trace.Stream {
	out := make([]trace.Stream, len(c.traces))
	for i, recs := range c.traces {
		out[i] = trace.NewSliceStream(recs)
	}
	return out
}
