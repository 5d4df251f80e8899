package scale

import (
	"time"

	"spritefs/internal/sim"
)

// cheapestPaths returns the all-pairs cheapest-latency matrix ([n*n],
// diagonal 0) over the directed link latencies lat. A future send can be a
// reply at the end of a request chain, so the safe lower bound on a link is
// the cheapest multi-hop path, not the direct latency — Floyd-Warshall
// covers topologies where a relay path undercuts a direct link.
func cheapestPaths(n int, lat func(from, to int) time.Duration) []sim.Time {
	dist := make([]sim.Time, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				dist[i*n+j] = sim.Time(lat(i, j))
			}
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			if i == k {
				continue
			}
			dik := dist[i*n+k]
			for j := 0; j < n; j++ {
				if j == k || i == j {
					continue
				}
				if d := satAdd(dik, time.Duration(dist[k*n+j])); d < dist[i*n+j] {
					dist[i*n+j] = d
				}
			}
		}
	}
	return dist
}

// linkClasses partitions the shards so that the executor's per-link
// computations run per class of shards rather than per link. Shards i and
// r share a class when their rows and columns of the latency and
// cheapest-path matrices agree everywhere but at each other, and the links
// between them are symmetric. Every link from a shard of class g to a
// different shard of class h (g = h included) then has one latency and
// one cheapest path, whoever its two ends are, so a minimum over the
// shards of a class (one of them excluded) stands in for a minimum over
// their links. A tiered topology has one class per site; an arbitrary
// latency matrix has singleton classes, which cost what a per-link
// computation does.
type linkClasses struct {
	of   []int           // [n] class of each shard
	size []int           // [G] shards in each class
	lat  []time.Duration // [G*G] link latency from class to class (diagonal: intra-class)
	dist []time.Duration // [G*G] cheapest-path latency, likewise
	// widest is, per class, the largest latency of a link out of any one
	// of its shards (0 when the shard has no link).
	widest []time.Duration
}

// newLinkClasses groups the shards first-fit in index order, comparing
// each with the first member of every class so far. That is enough: if i
// and s each agree with the first member r everywhere but at the two of
// them, then i and s agree with each other the same way, and the links
// i-s, s-i, i-r and r-i all cost what s-r does.
func newLinkClasses(n int, lat func(from, to int) time.Duration, dist []sim.Time) linkClasses {
	d := func(i, j int) sim.Time { return dist[i*n+j] }
	alike := func(i, r int) bool {
		for k := 0; k < n; k++ {
			if k == i || k == r {
				continue
			}
			if lat(i, k) != lat(r, k) || lat(k, i) != lat(k, r) || d(i, k) != d(r, k) || d(k, i) != d(k, r) {
				return false
			}
		}
		return lat(i, r) == lat(r, i) && d(i, r) == d(r, i)
	}
	c := linkClasses{of: make([]int, n)}
	var first, second []int // per class: its first member, and its second (-1 while it has none)
	for i := 0; i < n; i++ {
		c.of[i] = -1
		for g, r := range first {
			if alike(i, r) {
				c.of[i] = g
				if second[g] < 0 {
					second[g] = i
				}
				c.size[g]++
				break
			}
		}
		if c.of[i] < 0 {
			c.of[i] = len(first)
			first, second = append(first, i), append(second, -1)
			c.size = append(c.size, 1)
		}
	}
	G := len(first)
	c.lat = make([]time.Duration, G*G)
	c.dist = make([]time.Duration, G*G)
	c.widest = make([]time.Duration, G)
	for g, r := range first {
		for h, s := range first {
			if g == h {
				s = second[g]
			}
			if s >= 0 {
				c.lat[g*G+h], c.dist[g*G+h] = lat(r, s), time.Duration(d(r, s))
				c.widest[g] = max(c.widest[g], c.lat[g*G+h])
			}
		}
	}
	return c
}

// classMins folds a per-shard vector v per class, so that the minimum
// over shard i's inbound links of satAdd(v[k], latency from k to i) costs
// O(1): each class's minimum, the shard holding it and the runner-up give
// the class's minimum without i, and the terms of the other classes are
// the same for every shard of i's class. satAdd is monotone, so a class's
// term is its minimum, delayed once. A fold costs O(shards + classes²).
type classMins struct {
	c   *linkClasses
	lat []time.Duration // the class matrix the links are priced by
	// Per class: the minimum of v, the shard holding it, and the minimum
	// over the class's other shards.
	min, second []sim.Time
	arg         []int
	// cross[h] is the minimum over classes g ≠ h of satAdd(min[g],
	// lat[g][h]): what every other class can deliver into class h.
	cross []sim.Time
}

func newClassMins(c *linkClasses, lat []time.Duration) classMins {
	G := len(c.size)
	return classMins{c: c, lat: lat, min: make([]sim.Time, G), second: make([]sim.Time, G),
		arg: make([]int, G), cross: make([]sim.Time, G)}
}

// fold recomputes the minima from v.
func (m *classMins) fold(v []sim.Time) {
	for g := range m.min {
		m.min[g], m.second[g], m.arg[g] = never, never, -1
	}
	for i, t := range v {
		g := m.c.of[i]
		if t < m.min[g] {
			m.min[g], m.second[g], m.arg[g] = t, m.min[g], i
		} else if t < m.second[g] {
			m.second[g] = t
		}
	}
	G := len(m.min)
	for h := range m.cross {
		t := never
		for g, v := range m.min {
			if g != h {
				t = min(t, satAdd(v, m.lat[g*G+h]))
			}
		}
		m.cross[h] = t
	}
}

// inbound returns the minimum over shards k ≠ i of satAdd(v[k], latency
// from k to i), never when i has no link.
func (m *classMins) inbound(i int) sim.Time {
	h := m.c.of[i]
	own := m.min[h] // the class's minimum without i
	if m.arg[h] == i {
		own = m.second[h]
	}
	return min(m.cross[h], satAdd(own, m.lat[h*len(m.min)+h]))
}
