package migrate

import (
	"fmt"
	"slices"

	"spritefs/internal/sim"
)

type hostState struct {
	ownerActive bool
	migrants    []int32 // ascending pids
}

// Pool tracks which workstations are idle and places migrated processes.
type Pool struct {
	rng       *sim.Rand
	hosts     []hostState // indexed by workstation id
	lastPick  int32
	havePick  bool
	reuseBias float64
}

// NewPool returns a pool over workstations 0…n−1. reuseBias in [0,1] is
// the probability that selection reuses the previous target when it is
// still idle.
func NewPool(n int, reuseBias float64, rng *sim.Rand) *Pool {
	if rng == nil {
		panic("migrate: nil rng")
	}
	if reuseBias < 0 || reuseBias > 1 {
		panic(fmt.Sprintf("migrate: reuse bias %g out of range", reuseBias))
	}
	return &Pool{rng: rng, hosts: make([]hostState, n), reuseBias: reuseBias}
}

// host returns the state of workstation id, or nil when the pool does not
// cover it.
func (p *Pool) host(id int32) *hostState {
	if id < 0 || int(id) >= len(p.hosts) {
		return nil
	}
	return &p.hosts[id]
}

// IdleHosts returns the number of hosts currently eligible as targets.
func (p *Pool) IdleHosts() int {
	n := 0
	for i := range p.hosts {
		if !p.hosts[i].ownerActive {
			n++
		}
	}
	return n
}

// Migrants returns the pids currently migrated onto host, ascending.
func (p *Pool) Migrants(host int32) []int32 {
	h := p.host(host)
	if h == nil {
		return nil
	}
	return slices.Clone(h.migrants)
}

// SetOwnerActive marks the owner as present (active=true) or away. When an
// owner returns to a host running migrated processes, those processes are
// evicted: their pids are returned, ascending, so the caller can flush
// their memory and re-place or terminate them.
func (p *Pool) SetOwnerActive(host int32, active bool) []int32 {
	h := p.host(host)
	if h == nil {
		return nil
	}
	h.ownerActive = active
	if !active || len(h.migrants) == 0 {
		return nil
	}
	evicted := h.migrants
	h.migrants = nil
	return evicted
}

// Select picks a target host for a migrated process, never the requesting
// host. Selection reuses the previous target with probability reuseBias
// when it is still idle; otherwise it picks uniformly among idle hosts.
// ok is false when no idle host exists.
func (p *Pool) Select(requester int32) (host int32, ok bool) {
	if p.havePick && p.lastPick != requester && p.rng.Bool(p.reuseBias) {
		if !p.hosts[p.lastPick].ownerActive {
			return p.lastPick, true
		}
	}
	idle := p.IdleHosts()
	if h := p.host(requester); h != nil && !h.ownerActive {
		idle--
	}
	if idle == 0 {
		return 0, false
	}
	k := p.rng.Intn(idle)
	for i := range p.hosts {
		if int32(i) == requester || p.hosts[i].ownerActive {
			continue
		}
		if k == 0 {
			p.lastPick, p.havePick = int32(i), true
			return int32(i), true
		}
		k--
	}
	panic("migrate: idle count out of step with hosts")
}

// AddMigrant registers a migrated process on host.
func (p *Pool) AddMigrant(host, pid int32) {
	h := p.host(host)
	if h == nil {
		panic(fmt.Sprintf("migrate: unknown host %d", host))
	}
	i, found := slices.BinarySearch(h.migrants, pid)
	if !found {
		h.migrants = slices.Insert(h.migrants, i, pid)
	}
}

// RemoveMigrant unregisters a migrated process (it exited normally).
func (p *Pool) RemoveMigrant(host, pid int32) {
	if h := p.host(host); h != nil {
		if i, found := slices.BinarySearch(h.migrants, pid); found {
			h.migrants = slices.Delete(h.migrants, i, i+1)
		}
	}
}
