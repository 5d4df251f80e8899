package migrate

import (
	"fmt"
	"slices"

	"spritefs/internal/sim"
)

type hostState struct {
	ownerActive bool
	migrants    map[int32]bool
}

// Pool tracks which workstations are idle and places migrated processes.
type Pool struct {
	rng       *sim.Rand
	hosts     map[int32]*hostState
	order     []int32 // deterministic iteration order
	lastPick  int32
	havePick  bool
	reuseBias float64
}

// NewPool returns a pool over the given host ids. reuseBias in [0,1] is
// the probability that selection reuses the previous target when it is
// still idle.
func NewPool(hosts []int32, reuseBias float64, rng *sim.Rand) *Pool {
	if rng == nil {
		panic("migrate: nil rng")
	}
	if reuseBias < 0 || reuseBias > 1 {
		panic(fmt.Sprintf("migrate: reuse bias %g out of range", reuseBias))
	}
	p := &Pool{
		rng:       rng,
		hosts:     make(map[int32]*hostState, len(hosts)),
		reuseBias: reuseBias,
	}
	for _, id := range hosts {
		if _, dup := p.hosts[id]; dup {
			panic(fmt.Sprintf("migrate: duplicate host %d", id))
		}
		p.hosts[id] = &hostState{migrants: make(map[int32]bool)}
		p.order = append(p.order, id)
	}
	return p
}

// IdleHosts returns the number of hosts currently eligible as targets.
func (p *Pool) IdleHosts() int {
	n := 0
	for _, h := range p.hosts {
		if !h.ownerActive {
			n++
		}
	}
	return n
}

// Migrants returns the pids currently migrated onto host.
func (p *Pool) Migrants(host int32) []int32 {
	h := p.hosts[host]
	if h == nil {
		return nil
	}
	return h.sortedMigrants()
}

// sortedMigrants returns the host's migrant pids in ascending order
// (never map order: callers act on them one by one).
func (h *hostState) sortedMigrants() []int32 {
	out := make([]int32, 0, len(h.migrants))
	for pid := range h.migrants {
		out = append(out, pid)
	}
	slices.Sort(out)
	return out
}

// SetOwnerActive marks the owner as present (active=true) or away. When an
// owner returns to a host running migrated processes, those processes are
// evicted: their pids are returned so the caller can flush their memory
// and re-place or terminate them.
func (p *Pool) SetOwnerActive(host int32, active bool) []int32 {
	h := p.hosts[host]
	if h == nil {
		return nil
	}
	h.ownerActive = active
	if !active || len(h.migrants) == 0 {
		return nil
	}
	evicted := h.sortedMigrants()
	for _, pid := range evicted {
		delete(h.migrants, pid)
	}
	return evicted
}

// Select picks a target host for a migrated process, never the requesting
// host. Selection reuses the previous target with probability reuseBias
// when it is still idle; otherwise it picks uniformly among idle hosts.
// ok is false when no idle host exists.
func (p *Pool) Select(requester int32) (host int32, ok bool) {
	if p.havePick && p.lastPick != requester && p.rng.Bool(p.reuseBias) {
		if h := p.hosts[p.lastPick]; h != nil && !h.ownerActive {
			return p.lastPick, true
		}
	}
	var idle []int32
	for _, id := range p.order {
		if id == requester {
			continue
		}
		if h := p.hosts[id]; !h.ownerActive {
			idle = append(idle, id)
		}
	}
	if len(idle) == 0 {
		return 0, false
	}
	pick := idle[p.rng.Intn(len(idle))]
	p.lastPick, p.havePick = pick, true
	return pick, true
}

// AddMigrant registers a migrated process on host.
func (p *Pool) AddMigrant(host, pid int32) {
	h := p.hosts[host]
	if h == nil {
		panic(fmt.Sprintf("migrate: unknown host %d", host))
	}
	h.migrants[pid] = true
}

// RemoveMigrant unregisters a migrated process (it exited normally).
func (p *Pool) RemoveMigrant(host, pid int32) {
	if h := p.hosts[host]; h != nil {
		delete(h.migrants, pid)
	}
}
