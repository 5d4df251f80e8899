package live

import (
	"errors"
	"sync"
	"time"

	"spritefs/internal/sim"
	"spritefs/internal/trace"
)

// FleetConfig selects the client-agent fleet.
type FleetConfig struct {
	Agents int
	// Rate is the target aggregate request rate (requests/second across
	// the whole fleet). Inter-arrival times are exponential, so the offered
	// load is Poisson at this rate.
	Rate float64
	// Deadline bounds each request (retries included).
	Deadline time.Duration
	// Seed derives every agent's private RNG stream.
	Seed int64
	// Replay, when non-empty, drives agents from these trace records (file
	// ids remapped into the live population) instead of the generative
	// session model. Records are partitioned by trace client id and cycled
	// for the run's duration.
	Replay []trace.Record
}

// source produces an agent's next request and observes replies (to track
// open handles).
type source interface {
	next() (Request, bool)
	observe(req *Request, resp *Response, err error)
}

// Fleet drives a Service (or a remote TCP frontend) with FleetConfig.Agents
// concurrent agents.
type Fleet struct {
	cfg      FleetConfig
	svc      *Service
	counters *Counters
	// dial builds agent transports; defaults to the in-process dispatcher.
	dial func(agent int) (Transport, error)

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewFleet builds a fleet over svc using the in-process transport. The
// dispatcher's retry counter is wired into the fleet's counters.
func NewFleet(cfg FleetConfig, svc *Service, counters *Counters) *Fleet {
	f := &Fleet{cfg: cfg, svc: svc, counters: counters, stop: make(chan struct{})}
	f.dial = func(int) (Transport, error) {
		d := NewDispatcher(svc.WC, svc.Exec)
		d.onRetry = counters.Retry
		return d, nil
	}
	return f
}

// DialVia replaces the transport factory (the TCP mode dials the server
// address per agent).
func (f *Fleet) DialVia(dial func(agent int) (Transport, error)) { f.dial = dial }

// Start launches the agent goroutines.
func (f *Fleet) Start() error {
	for a := 0; a < f.cfg.Agents; a++ {
		tr, err := f.dial(a)
		if err != nil {
			f.Stop()
			return err
		}
		var src source
		if len(f.cfg.Replay) > 0 {
			src = newReplaySource(a, &f.cfg, f.svc)
		} else {
			src = newGenSource(a, &f.cfg, f.svc)
		}
		f.wg.Add(1)
		go f.agentLoop(a, tr, src)
	}
	return nil
}

// Stop signals every agent to finish its current request and exit, then
// waits for them.
func (f *Fleet) Stop() {
	select {
	case <-f.stop:
	default:
		close(f.stop)
	}
	f.wg.Wait()
}

// agentLoop paces one agent: exponential inter-arrival at the agent's
// share of the aggregate rate, one request at a time.
func (f *Fleet) agentLoop(id int, tr Transport, src source) {
	defer f.wg.Done()
	defer tr.Close()
	rng := sim.NewRand(f.cfg.Seed ^ int64(uint64(id+1)*0x9e3779b97f4a7c15>>1))
	mean := time.Duration(float64(f.cfg.Agents) / f.cfg.Rate * float64(time.Second))
	// One pacing timer for the agent's life: it is re-armed only after its
	// channel has been received from.
	pace := time.NewTimer(rng.ExpDur(mean))
	defer pace.Stop()
	for {
		select {
		case <-f.stop:
			return
		case <-pace.C:
		}
		req, ok := src.next()
		if !ok {
			return
		}
		f.counters.Begin()
		t0 := time.Now()
		resp, err := tr.Do(req, f.cfg.Deadline)
		wall := time.Since(t0)
		if errors.Is(err, ErrDeadline) {
			f.counters.Timeout()
		}
		failed := err != nil || !resp.OK()
		f.counters.Done(req.Verb, wall, resp.SimLat, failed)
		src.observe(&req, &resp, err)
		if errors.Is(err, ErrStopped) {
			return // service drained under us
		}
		pace.Reset(rng.ExpDur(mean))
	}
}

// genSource is the generative per-agent session model: open a file (mostly
// from the agent's private working set, sometimes a group-shared file),
// run a handful of sequential-ish reads or writes through it, close it,
// with occasional getattr probes between sessions — the paper's short
// sequential whole-file access pattern in miniature.
type genSource struct {
	agent   int32
	rng     *sim.Rand
	private []FileRef
	shared  []FileRef

	// session state
	handle  uint64
	file    FileRef
	writing bool
	opsLeft int
	pos     int64
}

func newGenSource(agent int, cfg *FleetConfig, svc *Service) *genSource {
	return &genSource{
		agent:   int32(agent),
		rng:     sim.NewRand(cfg.Seed ^ 0x11ee ^ int64(agent)<<20),
		private: svc.AgentFiles(agent),
		shared:  svc.SharedFiles(),
	}
}

func (g *genSource) pickFile() FileRef {
	if len(g.shared) > 0 && (len(g.private) == 0 || g.rng.Bool(0.2)) {
		return g.shared[g.rng.Intn(len(g.shared))]
	}
	return g.private[g.rng.Intn(len(g.private))]
}

func (g *genSource) next() (Request, bool) {
	if g.handle == 0 {
		// Between sessions: occasional getattr, otherwise open.
		if g.rng.Bool(0.1) {
			return Request{Verb: VerbGetattr, Agent: g.agent, File: g.pickFile().ID}, true
		}
		g.file = g.pickFile()
		g.writing = g.rng.Bool(0.25) // the paper's ~1/4 write share of traffic
		g.opsLeft = 2 + g.rng.Intn(6)
		g.pos = 0
		return Request{Verb: VerbOpen, Agent: g.agent, File: g.file.ID, Write: g.writing}, true
	}
	if g.opsLeft <= 0 {
		h := g.handle
		g.handle = 0
		return Request{Verb: VerbClose, Agent: g.agent, Handle: h}, true
	}
	g.opsLeft--
	// Mostly sequential, short transfers; whole small files in one op.
	n := int64(4096)
	if g.file.Size > 0 && g.file.Size < n {
		n = g.file.Size
	}
	off := g.pos
	if g.file.Size > n && g.rng.Bool(0.15) { // occasional seek
		off = g.rng.Int63n(g.file.Size - n)
	}
	g.pos = off + n
	if g.file.Size > 0 && g.pos >= g.file.Size {
		g.pos = 0
	}
	verb := VerbRead
	if g.writing {
		verb = VerbWrite
	}
	return Request{Verb: verb, Agent: g.agent, Handle: g.handle, Offset: off, Length: n}, true
}

func (g *genSource) observe(req *Request, resp *Response, err error) {
	switch req.Verb {
	case VerbOpen:
		if err == nil && resp.OK() {
			g.handle = resp.Handle
			if resp.Size > 0 {
				g.file.Size = resp.Size
			}
		} else {
			g.handle = 0 // session aborted
		}
	case VerbRead, VerbWrite:
		if err != nil || !resp.OK() {
			g.opsLeft = 0 // finish the session early; next step closes
		}
	case VerbClose:
		// handle already cleared in next(); nothing to track
	}
}

// replaySource drives an agent from its partition of a recorded trace: the
// records whose trace client id maps onto this agent, with trace file ids
// remapped deterministically into the live bootstrap population and trace
// handles mapped to the live handles the opens actually returned. The
// replay preserves the trace's shape (verb mix, transfer sizes, offsets),
// not its absolute file identities; pacing comes from the fleet's rate,
// not the trace timestamps.
type replaySource struct {
	agent   int32
	recs    []trace.Record
	pos     int
	files   []FileRef         // remap target population
	handles map[uint64]uint64 // trace handle -> live handle
	// pending is the trace handle of the open in flight, if opening.
	pending uint64
	opening bool
}

func newReplaySource(agent int, cfg *FleetConfig, svc *Service) *replaySource {
	var mine []trace.Record
	n := int32(cfg.Agents)
	for _, r := range cfg.Replay {
		if r.Flags&trace.FlagSelfTrace != 0 {
			continue
		}
		switch r.Kind {
		case trace.KindOpen, trace.KindClose, trace.KindRead, trace.KindWrite:
		default:
			continue
		}
		c := r.Client
		if c < 0 {
			c = 0
		}
		if c%n == int32(agent) {
			mine = append(mine, r)
		}
	}
	files := append([]FileRef(nil), svc.AgentFiles(agent)...)
	files = append(files, svc.SharedFiles()...)
	return &replaySource{
		agent:   int32(agent),
		recs:    mine,
		files:   files,
		handles: make(map[uint64]uint64),
	}
}

// remap folds a trace file id onto the live population.
func (r *replaySource) remap(file uint64) uint64 {
	if len(r.files) == 0 {
		return file
	}
	h := file * 0x9e3779b97f4a7c15
	return r.files[h%uint64(len(r.files))].ID
}

func (r *replaySource) next() (Request, bool) {
	for tries := 0; tries < len(r.recs); tries++ {
		rec := r.recs[r.pos]
		r.pos = (r.pos + 1) % len(r.recs)
		switch rec.Kind {
		case trace.KindOpen:
			r.pending, r.opening = rec.Handle, true
			return Request{
				Verb: VerbOpen, Agent: r.agent,
				File:  r.remap(rec.File),
				Write: rec.Flags&trace.FlagWriteMode != 0,
			}, true
		case trace.KindRead, trace.KindWrite:
			live, ok := r.handles[rec.Handle]
			if !ok {
				continue // open lost to an error or a wrapped-around cycle
			}
			verb := VerbRead
			if rec.Kind == trace.KindWrite {
				verb = VerbWrite
			}
			n := rec.Length
			if n <= 0 {
				n = 4096
			}
			return Request{Verb: verb, Agent: r.agent, Handle: live, Offset: rec.Offset, Length: n}, true
		case trace.KindClose:
			live, ok := r.handles[rec.Handle]
			if !ok {
				continue
			}
			delete(r.handles, rec.Handle)
			return Request{Verb: VerbClose, Agent: r.agent, Handle: live}, true
		}
	}
	// A full cycle with nothing issuable means the partition has no opens
	// (and so can never build a handle); the agent retires.
	return Request{}, false
}

func (r *replaySource) observe(req *Request, resp *Response, err error) {
	if req.Verb != VerbOpen || !r.opening {
		return
	}
	if err == nil && resp.OK() {
		r.handles[r.pending] = resp.Handle
	}
	r.opening = false
}
