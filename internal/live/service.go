package live

import (
	"errors"
	"fmt"

	"spritefs/internal/cluster"
	"spritefs/internal/server"
	"spritefs/internal/workload"
)

// ServiceConfig selects the live server group.
type ServiceConfig struct {
	// Agents is the client-agent population; agents map onto the cluster's
	// workstations round-robin (agent % NumClients).
	Agents int
	// Seed drives the file-population bootstrap and the cluster's RNG.
	Seed int64
}

// FileRef is one file an agent may target, with its bootstrap size (live
// writes may grow it; agents only need a plausible offset range).
type FileRef struct {
	ID   uint64
	Size int64
}

// Service is the live server group: the paper's cluster — servers, caches,
// consistency, recovery — owned by a WallClock dispatcher loop and exposed
// through an in-process RPC executor. The synthetic user community is NOT
// started; the agent fleet is the community.
type Service struct {
	WC      *WallClock
	Cluster *cluster.Cluster

	agents int
	// perAgent[i] is agent i's private working set; shared is visible to
	// every agent (the write-sharing files that exercise consistency).
	// Built at construction, immutable afterwards — safe to read from any
	// goroutine.
	perAgent [][]FileRef
	shared   []FileRef
}

// maxWorkstations caps the number of simulated workstations; beyond the
// paper's 40, extra agents share machines (several users per workstation
// was the reality of the traced cluster too).
const maxWorkstations = 40

// NewService assembles the cluster and wraps its simulator in a WallClock.
// Nothing runs until Start.
func NewService(cfg ServiceConfig) (*Service, error) {
	if cfg.Agents < 1 {
		return nil, fmt.Errorf("live: need at least one agent, got %d", cfg.Agents)
	}
	p := workload.Default(cfg.Seed)
	p.NumClients = cfg.Agents
	if p.NumClients > maxWorkstations {
		p.NumClients = maxWorkstations
	}
	// One bootstrap "user" per agent so every agent has a private working
	// set; no occasional users, no backup noise — the fleet is the load.
	p.DailyUsers = cfg.Agents
	p.OccasionalUsers = 0
	p.EmitBackupNoise = false
	ccfg := cluster.Config{
		Params:     p,
		NumServers: 4,
		// No trace collection and no virtual-time samplers: the live
		// metrics endpoint observes the run instead.
	}
	c := cluster.New(ccfg)
	s := &Service{
		WC:      New(c.Sim),
		Cluster: c,
		agents:  cfg.Agents,
	}
	s.buildWorkingSets()
	return s, nil
}

// buildWorkingSets flattens the bootstrap registry into per-agent and
// shared target lists (construction-time only: the cluster is still
// single-threaded here).
func (s *Service) buildWorkingSets() {
	reg := s.Cluster.Registry
	ref := func(id uint64) FileRef { return FileRef{ID: id, Size: s.fileSize(id)} }
	s.perAgent = make([][]FileRef, s.agents)
	for a := 0; a < s.agents; a++ {
		user := int32(a)
		var set []FileRef
		for _, id := range reg.Small(user) {
			set = append(set, ref(id))
		}
		for _, id := range reg.Data(user) {
			set = append(set, ref(id))
		}
		if mb, ok := reg.Mailbox(user); ok {
			set = append(set, ref(mb))
		}
		s.perAgent[a] = set
	}
	for g := 0; g < int(workload.NumGroups); g++ {
		for _, id := range reg.GroupShared[workload.Group(g)] {
			s.shared = append(s.shared, ref(id))
		}
	}
}

// fileSize sizes a file at the server the clients route it to
// (cluster.ServerFor), or 0 if it does not exist there.
func (s *Service) fileSize(id uint64) int64 {
	if f := s.Cluster.ServerFor(id).Lookup(id); f != nil {
		return f.Size
	}
	return 0
}

// AgentFiles returns agent a's private working set (none for a negative
// id). The returned slice is immutable; callers must not modify it.
func (s *Service) AgentFiles(a int) []FileRef {
	if a < 0 {
		return nil
	}
	return s.perAgent[a%s.agents]
}

// SharedFiles returns the cross-agent shared files. Immutable.
func (s *Service) SharedFiles() []FileRef { return s.shared }

// Start schedules the cluster's standing daemons (cleaners, system
// processes, samplers) at virtual time zero — the simulator is still
// exclusively ours here — and then launches the dispatcher loop, which
// takes ownership.
func (s *Service) Start() error {
	s.Cluster.StartDaemons()
	s.WC.Start()
	return s.WC.Call(func() {})
}

// Drain stops the cluster daemons, lets delayed writes flush, and shuts
// the dispatcher loop down. After Drain the service accepts no requests.
func (s *Service) Drain() {
	// Best-effort: the clock may already be stopped (double signal).
	s.WC.Call(func() {
		s.Cluster.Finish()
		// Push every client's dirty blocks out now rather than waiting the
		// 30-second delayed-write period that will never elapse.
		for _, cl := range s.Cluster.Clients {
			for _, f := range cl.Cache.DirtyFiles() {
				cl.FlushForRecall(f)
			}
		}
	})
	s.WC.Stop()
}

// Exec runs one request against the cluster. Loop-only: the Dispatcher
// invokes it from the WallClock goroutine.
func (s *Service) Exec(req *Request) Response {
	if req.Agent < 0 {
		return Response{Err: fmt.Sprintf("live: negative agent id %d", req.Agent)}
	}
	cl := s.Cluster.Clients[int(req.Agent)%len(s.Cluster.Clients)]
	user := req.Agent
	proc := 10000 + req.Agent // one synthetic process per agent
	switch req.Verb {
	case VerbOpen:
		hid, lat, err := cl.Open(user, proc, req.File, true, req.Write, false)
		if err != nil {
			return Response{Err: err.Error(), Retryable: errors.Is(err, server.ErrDown), SimLat: lat}
		}
		return Response{Handle: hid, Size: s.fileSize(req.File), SimLat: lat}
	case VerbRead:
		if !cl.HasHandle(req.Handle) {
			return Response{Err: "live: read on unknown handle"}
		}
		n, lat := cl.ReadAt(req.Handle, req.Offset, req.Length)
		return Response{N: n, SimLat: lat}
	case VerbWrite:
		if !cl.HasHandle(req.Handle) {
			return Response{Err: "live: write on unknown handle"}
		}
		lat := cl.WriteAt(req.Handle, req.Offset, req.Length)
		return Response{N: req.Length, SimLat: lat}
	case VerbClose:
		lat, err := cl.Close(req.Handle)
		if err != nil {
			return Response{Err: err.Error(), SimLat: lat}
		}
		return Response{SimLat: lat}
	case VerbGetattr:
		// Attribute reads hit the server's name cache; the paper charges
		// them a control RPC, which FileSize's routing already models as
		// free lookup — charge no extra simulated latency.
		return Response{Size: cl.FileSize(req.File)}
	default:
		return Response{Err: fmt.Sprintf("live: unknown verb %d", req.Verb)}
	}
}
