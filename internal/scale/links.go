package scale

import (
	"time"

	"spritefs/internal/sim"
)

// siteMins folds a per-shard vector v per site, so that the minimum over
// shard i's inbound links of satAdd(v[k], latency from k to i) costs O(1).
// Every link is priced by one of the router's two tiers — the site tier
// between two shards of one site, the cross-site price between any others
// — and satAdd is monotone, so that minimum is the smaller of two terms:
// the lowest v of the other sites, delayed by the cross-site price, and
// the lowest v of i's own site without i, delayed by the site tier's. Per
// site the fold keeps its minimum, the shard holding it and the minimum
// over its other shards; over the sites, the two lowest site minima. A
// fold costs O(shards + sites).
type siteMins struct {
	site []int            // [n] each shard's site, looked up rather than divided out
	lat  [2]time.Duration // per tier: 0 within a site, 1 across the WAN
	// Per site: the minimum of v, the shard holding it, and the minimum
	// over the site's other shards.
	min, second []sim.Time
	arg         []int
	// low holds the two lowest site minima, the first of them site lowAt's.
	low   [2]sim.Time
	lowAt int
}

func newSiteMins(topo Topology, n int, lat [2]time.Duration) siteMins {
	m := siteMins{site: make([]int, n), lat: lat, min: make([]sim.Time, topo.Sites),
		second: make([]sim.Time, topo.Sites), arg: make([]int, topo.Sites)}
	for i := range m.site {
		m.site[i] = topo.SiteOf(i)
	}
	return m
}

// fold recomputes the minima from v.
func (m *siteMins) fold(v []sim.Time) {
	for s := range m.min {
		m.min[s], m.second[s], m.arg[s] = never, never, -1
	}
	for i, t := range v {
		s := m.site[i]
		if t < m.min[s] {
			m.min[s], m.second[s], m.arg[s] = t, m.min[s], i
		} else if t < m.second[s] {
			m.second[s] = t
		}
	}
	m.low, m.lowAt = [2]sim.Time{never, never}, -1
	for s, t := range m.min {
		if t < m.low[0] {
			m.low, m.lowAt = [2]sim.Time{t, m.low[0]}, s
		} else if t < m.low[1] {
			m.low[1] = t
		}
	}
}

// inbound returns the minimum over shards k ≠ i of satAdd(v[k], latency
// from k to i), never when i has no link.
func (m *siteMins) inbound(i int) sim.Time {
	s := m.site[i]
	own := m.min[s] // the site's minimum without i
	if m.arg[s] == i {
		own = m.second[s]
	}
	other := m.low[0] // the other sites' minimum
	if m.lowAt == s {
		other = m.low[1]
	}
	return min(satAdd(other, m.lat[1]), satAdd(own, m.lat[0]))
}
