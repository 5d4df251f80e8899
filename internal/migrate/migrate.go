package migrate

import (
	"fmt"

	"spritefs/internal/sim"
)

// Pool tracks which workstations are idle and picks targets for migrated
// processes among them.
type Pool struct {
	rng         *sim.Rand
	ownerActive []bool // indexed by workstation id
	lastPick    int32
	havePick    bool
	reuseBias   float64
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
	return &Pool{rng: rng, ownerActive: make([]bool, n), reuseBias: reuseBias}
}

// IdleHosts returns the number of hosts currently eligible as targets.
func (p *Pool) IdleHosts() int {
	n := 0
	for _, active := range p.ownerActive {
		if !active {
			n++
		}
	}
	return n
}

// SetOwnerActive marks host's owner as present (active=true) or away.
func (p *Pool) SetOwnerActive(host int32, active bool) {
	p.ownerActive[host] = active
}

// Select picks a target host for a migrated process, never the requesting
// host. Selection reuses the previous target with probability reuseBias
// when it is still idle; otherwise it picks uniformly among idle hosts.
// ok is false when no idle host exists.
func (p *Pool) Select(requester int32) (host int32, ok bool) {
	if p.havePick && p.lastPick != requester && p.rng.Bool(p.reuseBias) {
		if !p.ownerActive[p.lastPick] {
			return p.lastPick, true
		}
	}
	idle := p.IdleHosts()
	if requester >= 0 && int(requester) < len(p.ownerActive) && !p.ownerActive[requester] {
		idle--
	}
	if idle == 0 {
		return 0, false
	}
	k := p.rng.Intn(idle)
	for i, active := range p.ownerActive {
		if int32(i) == requester || active {
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
