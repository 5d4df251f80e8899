// Package replay re-executes captured trace streams against the cluster's
// client caches, servers and consistency machinery — the trace-driven
// methodology of the paper's Section 5 simulations, which evaluated
// cache-consistency alternatives by feeding kernel traces through cache
// models rather than re-running the user community.
//
// The engine consumes a time-ordered trace.Record stream (binary or text,
// merged across per-server files with trace.Merge) and replaces the
// generative workload as the event source on the deterministic sim event
// loop: every open/read/write/close/seek/create/delete/truncate is issued
// to a real client kernel, flowing through the block cache, the shared
// network, the servers and the consistency coordinator exactly as live
// traffic does.
//
// The engine is a driver over the cluster assembly, not a second one: it
// holds a cluster.NewSystem — the same simulator, network, servers,
// coordinator, injector, daemons and registry that batch runs, scale
// shards and the live service use, minus the user community — and adds
// workstations with AddClient as the trace names them. What is replay's
// own is the stream handling: scrub and filter, time scaling, the
// trace-handle map, bootstrapping files the trace references but never
// created, and the drain rule. Because the system under test is the one
// cluster.New wires, a replay produces a cluster.Report comparable field
// by field with a live run's, and all downstream tables work unchanged.
//
// What replay cannot reproduce is traffic the paper's tracing never
// logged: virtual-memory paging and the resident system processes. Their
// absence perturbs cache contents slightly, which is why replayed
// cache-hit ratios match live runs within a small tolerance rather than
// exactly (the fidelity tests document the bound); record-level quantities
// — opens, application bytes presented, write-sharing events — match
// exactly.
package replay

import (
	"errors"
	"io"
	"time"

	"spritefs/internal/client"
	"spritefs/internal/cluster"
	"spritefs/internal/faults"
	"spritefs/internal/fscache"
	"spritefs/internal/metrics"
	"spritefs/internal/netsim"
	"spritefs/internal/server"
	"spritefs/internal/trace"
)

// Config selects one replay experiment: the cluster shape the trace is
// replayed against plus the replay controls (time scaling, filtering).
// The zero value replays at recorded speed against the paper's defaults.
type Config struct {
	// Name labels the configuration in sweep reports.
	Name string
	// NumServers is the number of file servers (default 4, as the paper).
	// Traces referencing higher server indices fall back to server 0, the
	// same clamp the live cluster applies.
	NumServers int
	// Speed is the virtual-time scale: 2 replays the trace at twice the
	// recorded rate (inter-record gaps halved), stressing the fixed-period
	// machinery (30-second delayed writes, cleaner daemons, poll windows)
	// with denser traffic. Zero or negative defaults to 1 (recorded speed).
	Speed float64
	// AsFastAsPossible ignores record timestamps entirely: records apply
	// back-to-back with virtual time frozen at the start, so time-dependent
	// daemons only run in the final drain. Use it for pure reference-string
	// experiments where timing fidelity does not matter.
	AsFastAsPossible bool
	// SamplePeriod enables the metric sampler at this interval on the
	// virtual clock (zero disables): Table 4 is computed from its series,
	// which are on Result.Metrics.MetricSampler after Run.
	SamplePeriod time.Duration
	// FixedCachePages pins every client cache at a constant size.
	FixedCachePages int
	// WritebackDelay overrides the 30-second delayed-write interval.
	WritebackDelay time.Duration
	// PrefetchBlocks enables sequential prefetch of that many blocks.
	PrefetchBlocks int
	// Consistency selects the cache-consistency scheme under replay —
	// the knob the paper's Section 5.5 trace simulations existed to turn.
	Consistency client.ConsistencyMode
	// PollInterval is the validity window under ConsistencyPoll.
	PollInterval time.Duration
	// Keep, when set, drops records for which it returns false (after the
	// engine's own scrub of self-trace records). Use KeepClients /
	// KeepKinds / And to build filters.
	Keep func(*trace.Record) bool
	// Faults injects crashes, partitions and network perturbations into
	// the replay on the virtual clock — replaying the same trace with and
	// without a mid-run server crash isolates exactly what the fault cost.
	Faults faults.Schedule
	// MetricsMatch restricts sampling to families for which it returns
	// true; nil samples every non-summary family.
	MetricsMatch func(name string) bool
}

// Stats counts what the engine did with the stream.
type Stats struct {
	Read          int64 // records pulled from the stream
	Applied       int64 // records re-executed
	Filtered      int64 // dropped by Config.Keep
	Scrubbed      int64 // self-trace or clientless records dropped
	UnknownHandle int64 // ops referencing a handle with no replayed open
	Errors        int64 // open/close errors tolerated and skipped
	Bootstrapped  int64 // files materialized on first reference
	Creates       int64 // creations replayed
	Migrations    int64 // migration markers (no file-system effect)
}

// Result is one replay's outcome: the bookkeeping counters and the full
// counter-table report, shaped exactly like a live cluster's.
type Result struct {
	Config  Config
	Stats   Stats
	Report  cluster.Report
	Faults  faults.Stats  // what the schedule injected (zero when empty)
	Horizon time.Duration // virtual time of the last applied record
	End     time.Duration // virtual time after the drain
	// Metrics is the counter view the report was computed from:
	// Metrics.Registry().Dump exports every counter, and
	// Metrics.MetricSampler holds every sampled row (nil unless
	// Config.SamplePeriod is set).
	Metrics *cluster.Metrics
}

// liveHandle maps a trace open-instance to the replayed client handle.
type liveHandle struct {
	cl  *client.Client
	hid uint64
}

// Engine replays one trace stream against one cluster configuration.
type Engine struct {
	cfg Config
	// C is the system under replay: a cluster.NewSystem with no user
	// community, to which the engine adds workstations as the trace names
	// them. Its simulator, network, servers, injector, registry and
	// sampler are the ones every other driver runs against.
	C *cluster.Cluster

	handles map[uint64]liveHandle
	stats   Stats
	ran     bool
}

// New assembles an idle replay engine. Servers exist up front (their
// identity is baked into file ids); clients materialize lazily at the
// first record that names them, mirroring how the trace itself only
// mentions workstations that did something.
func New(cfg Config) *Engine {
	if cfg.NumServers <= 0 {
		cfg.NumServers = 4
	}
	if cfg.Speed <= 0 {
		cfg.Speed = 1
	}
	ccfg := cluster.Config{
		NumServers:      cfg.NumServers,
		SamplePeriod:    cfg.SamplePeriod,
		FixedCachePages: cfg.FixedCachePages,
		WritebackDelay:  cfg.WritebackDelay,
		PrefetchBlocks:  cfg.PrefetchBlocks,
		Consistency:     cfg.Consistency,
		PollInterval:    cfg.PollInterval,
		Faults:          cfg.Faults,
		MetricsMatch:    cfg.MetricsMatch,
	}
	e := &Engine{
		cfg:     cfg,
		C:       cluster.NewSystem(ccfg),
		handles: make(map[uint64]liveHandle),
	}
	e.registerMetrics(e.C.Reg)
	return e
}

// registerMetrics registers the engine's own stream bookkeeping, so a
// metrics dump states what the replay did with the trace alongside what
// the components did with the replayed operations.
func (e *Engine) registerMetrics(r *metrics.Registry) {
	ctr := func(name, unit, help string, v *int64) {
		r.IntVar(metrics.Desc{Name: name, Unit: unit, Help: help, Kind: metrics.Counter}, nil, v)
	}
	ctr("spritefs_replay_records_read_total", "records",
		"Records pulled from the trace stream.", &e.stats.Read)
	ctr("spritefs_replay_records_applied_total", "records",
		"Records re-executed against the replayed cluster.", &e.stats.Applied)
	ctr("spritefs_replay_records_filtered_total", "records",
		"Records dropped by the configured Keep filter.", &e.stats.Filtered)
	ctr("spritefs_replay_records_scrubbed_total", "records",
		"Self-trace or clientless records scrubbed, as the paper's merge step scrubbed backup noise.", &e.stats.Scrubbed)
	ctr("spritefs_replay_unknown_handle_total", "records",
		"Operations referencing a handle whose open was never replayed.", &e.stats.UnknownHandle)
	ctr("spritefs_replay_errors_total", "records",
		"Open/close errors tolerated and skipped.", &e.stats.Errors)
	ctr("spritefs_replay_bootstrapped_files_total", "files",
		"Files materialized on first reference — the source run's pre-existing population.", &e.stats.Bootstrapped)
	ctr("spritefs_replay_creates_total", "records",
		"File creations replayed.", &e.stats.Creates)
	ctr("spritefs_replay_migrations_total", "records",
		"Process-migration markers seen (no file-system effect).", &e.stats.Migrations)
}

// clientFor returns the workstation with the given id, bringing it up on
// first reference (the running cluster starts its cleaner daemon then).
func (e *Engine) clientFor(id int32) *client.Client {
	if cl := e.C.ClientByID(id); cl != nil {
		return cl
	}
	return e.C.AddClient(id)
}

// scaledTime maps a record timestamp to replay virtual time.
func (e *Engine) scaledTime(t time.Duration) time.Duration {
	if e.cfg.AsFastAsPossible {
		return e.C.Sim.Now()
	}
	if e.cfg.Speed == 1 {
		return t
	}
	return time.Duration(float64(t) / e.cfg.Speed)
}

// Run replays the stream to exhaustion, drains the delayed-write pipeline,
// and returns the replay's report. An engine runs once.
func (e *Engine) Run(s trace.Stream) (*Result, error) {
	if e.ran {
		return nil, errors.New("replay: engine already ran")
	}
	e.ran = true

	// Server cleaners and the sampler start now; each workstation's
	// cleaner starts when the trace first names it.
	c := e.C
	c.StartDaemons()

	for {
		rec, err := s.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		e.stats.Read++
		// Scrub what the paper's merge step scrubs, plus records with no
		// issuing workstation (raw per-server files fed in without Merge).
		if rec.Flags&trace.FlagSelfTrace != 0 || rec.Client < 0 {
			e.stats.Scrubbed++
			continue
		}
		if e.cfg.Keep != nil && !e.cfg.Keep(&rec) {
			e.stats.Filtered++
			continue
		}
		// Advance the cluster (daemons, delayed writes, sampler) to the
		// record's moment, then re-execute it. Out-of-order timestamps are
		// tolerated by applying at the current clock.
		if at := e.scaledTime(rec.Time); at > c.Sim.Now() {
			c.Sim.RunUntil(at)
		}
		e.apply(&rec)
		e.stats.Applied++
	}
	horizon := c.Sim.Now()

	// Drain: let the cleaner daemons age out and flush the delayed writes
	// accumulated at the horizon, then stop all periodic machinery.
	maxDelay := 30 * time.Second
	for _, cl := range c.Clients {
		if d := cl.Cache.WriteDelay(); d > maxDelay {
			maxDelay = d
		}
	}
	c.Sim.RunUntil(horizon + maxDelay + 2*fscache.CleanerPeriod + time.Minute)
	c.Finish()

	m := &c.Metrics
	res := &Result{
		Config:  e.cfg,
		Stats:   e.stats,
		Report:  m.Report(),
		Horizon: horizon,
		End:     c.Sim.Now(),
		Metrics: m,
	}
	if c.Injector != nil {
		res.Faults = c.Injector.Stats()
	}
	return res, nil
}

// ensureFile materializes a file the trace references but never created
// inside the captured window — the pre-existing population of the source
// run. sizeHint is the best lower bound the referencing record implies.
func (e *Engine) ensureFile(file uint64, sizeHint int64, directory bool) *server.File {
	srv := e.C.ServerFor(file)
	if f := srv.Lookup(file); f != nil {
		if f.Size < sizeHint {
			srv.Grow(file, sizeHint, e.C.Sim.Now())
		}
		return f
	}
	e.stats.Bootstrapped++
	if sizeHint < 0 {
		sizeHint = 0
	}
	return srv.Install(file, sizeHint, directory, e.C.Sim.Now())
}

// apply re-executes one record against the replayed cluster.
func (e *Engine) apply(rec *trace.Record) {
	switch rec.Kind {
	case trace.KindOpen:
		// Size at open re-syncs any drift in the bootstrap estimate.
		e.ensureFile(rec.File, rec.Size, rec.IsDirectory())
		cl := e.clientFor(rec.Client)
		read := rec.Flags&trace.FlagReadMode != 0
		write := rec.Flags&trace.FlagWriteMode != 0
		if !read && !write {
			read = true // hand-written traces may omit modes
		}
		hid, _, err := cl.Open(rec.User, rec.Proc, rec.File, read, write, rec.IsMigrated())
		if err != nil {
			e.stats.Errors++
			return
		}
		if rec.Handle != 0 {
			e.handles[rec.Handle] = liveHandle{cl: cl, hid: hid}
		}

	case trace.KindClose:
		h, ok := e.handles[rec.Handle]
		if !ok {
			e.stats.UnknownHandle++
			return
		}
		delete(e.handles, rec.Handle)
		if _, err := h.cl.Close(h.hid); err != nil {
			e.stats.Errors++
		}

	case trace.KindRead, trace.KindDirRead:
		h, ok := e.handles[rec.Handle]
		if !ok {
			e.stats.UnknownHandle++
			return
		}
		e.ensureFile(rec.File, rec.Offset+rec.Length, rec.IsDirectory())
		h.cl.ReadAt(h.hid, rec.Offset, rec.Length)

	case trace.KindWrite:
		h, ok := e.handles[rec.Handle]
		if !ok {
			e.stats.UnknownHandle++
			return
		}
		e.ensureFile(rec.File, 0, false)
		h.cl.WriteAt(h.hid, rec.Offset, rec.Length)

	case trace.KindReposition:
		h, ok := e.handles[rec.Handle]
		if !ok {
			e.stats.UnknownHandle++
			return
		}
		h.cl.Seek(h.hid, rec.Offset)

	case trace.KindCreate:
		srv := e.C.ServerFor(rec.File)
		if srv.Lookup(rec.File) == nil {
			srv.Install(rec.File, 0, rec.IsDirectory(), e.C.Sim.Now())
		}
		e.stats.Creates++
		e.clientFor(rec.Client)
		e.C.Net.RPC(rec.Client, netsim.Control, 0)

	case trace.KindDelete:
		cl := e.clientFor(rec.Client)
		cl.Delete(rec.User, rec.Proc, rec.File, rec.IsMigrated())

	case trace.KindTruncate:
		cl := e.clientFor(rec.Client)
		cl.Truncate(rec.User, rec.Proc, rec.File, rec.IsMigrated())

	case trace.KindMigrate:
		// Process migration markers carry no file-system state; the
		// migrated flag on subsequent records is what matters.
		e.stats.Migrations++
	}
}

// Run is the one-shot convenience: build an engine for cfg and replay s.
func Run(cfg Config, s trace.Stream) (*Result, error) {
	return New(cfg).Run(s)
}

// --- Record filters ---

// KeepClients keeps only records issued by the given workstations.
func KeepClients(ids ...int32) func(*trace.Record) bool {
	set := make(map[int32]bool, len(ids))
	for _, id := range ids {
		set[id] = true
	}
	return func(r *trace.Record) bool { return set[r.Client] }
}

// KeepKinds keeps only records of the given kinds. Note that dropping
// opens orphans the dropped handles' reads and closes; kind filters are
// for analyses that tolerate that (the engine counts the orphans).
func KeepKinds(kinds ...trace.Kind) func(*trace.Record) bool {
	var set [32]bool
	for _, k := range kinds {
		if int(k) < len(set) {
			set[k] = true
		}
	}
	return func(r *trace.Record) bool { return int(r.Kind) < len(set) && set[r.Kind] }
}

// And composes filters conjunctively.
func And(fs ...func(*trace.Record) bool) func(*trace.Record) bool {
	return func(r *trace.Record) bool {
		for _, f := range fs {
			if !f(r) {
				return false
			}
		}
		return true
	}
}
