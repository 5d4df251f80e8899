package scale

import (
	"fmt"
	"time"

	"spritefs/internal/cluster"
	"spritefs/internal/workload"
)

// Tier prices one level of the topology hierarchy: the one-way
// store-and-forward latency of a hop through that tier and the tier
// trunk's bandwidth in bytes/second.
type Tier struct {
	Latency      time.Duration
	BandwidthBps float64
}

// TiersConfig is the backbone's one price table, for every topology (a
// flat topology is one site). An intra-site message pays one Site hop; a
// cross-site message pays Site (up to the source site's gateway) + WAN (the
// inter-site trunk) + Site (down from the destination site's gateway),
// store-and-forward at each hop. The two derived link latencies are the
// channel-clock executor's lookahead, so cross-site links buy the
// executor wide windows while intra-site links stay tight.
// Latencies may be zero — the zero-lookahead corner the executor's stall
// rescue covers — but not negative; a zero bandwidth takes DefaultTiers'
// value for that tier.
type TiersConfig struct {
	// Site is the backbone joining a site's segments.
	Site Tier
	// WAN is the inter-site trunk.
	WAN Tier
}

// DefaultTiers returns the wide-area pricing the scale study uses: the
// campus backbone within a site (2 ms, 100 Mbit/s) and a T3-class
// long-haul trunk between sites (30 ms, 45 Mbit/s) — the shape of the
// successor systems' wide-area deployments, where the WAN tier is an
// order of magnitude slower than a site backbone in both dimensions.
func DefaultTiers() TiersConfig {
	return TiersConfig{
		Site: Tier{Latency: 2 * time.Millisecond, BandwidthBps: 12.5e6},
		WAN:  Tier{Latency: 30 * time.Millisecond, BandwidthBps: 5.625e6},
	}
}

// Topology describes the shard grid: Sites sites of SegsPerSite Ethernet
// segments each. The flat (pre-hierarchical) topology is one site
// containing every segment.
type Topology struct {
	Sites       int
	SegsPerSite int
}

// SiteOf returns the site a shard belongs to. Shards are numbered
// site-major: site s owns shards [s*SegsPerSite, (s+1)*SegsPerSite).
func (t Topology) SiteOf(shard int) int { return shard / t.SegsPerSite }

// SameSite reports whether two shards share a site.
func (t Topology) SameSite(a, b int) bool { return t.SiteOf(a) == t.SiteOf(b) }

// RemoteConfig shapes the cross-segment traffic: how often a client
// reaches across the router, and for what.
type RemoteConfig struct {
	// OpsPerClientHour is the mean number of cross-segment operations one
	// client issues per hour. Zero disables remote traffic (shards run
	// fully decoupled; the executor still barriers but exchanges nothing).
	OpsPerClientHour float64
	// ReadFrac is the fraction of remote operations that are reads of a
	// remote shard's shared artifacts; the rest are writes (remote log
	// appends, result drops).
	ReadFrac float64
	// BytesMedian/BytesSigma give the log-normal size of a remote
	// operation's payload.
	BytesMedian float64
	BytesSigma  float64
	// SiteAffinity is the probability that a remote operation is drawn
	// from the artifacts homed in the client's own site (crossing only
	// the site tier); the rest draw from the global catalog and usually
	// cross the WAN. Ignored in flat (single-site) topologies.
	SiteAffinity float64
}

// DefaultRemote returns the cross-segment mix the scale study uses: a
// handful of remote ops per client-hour (the paper's users touched other
// groups' files rarely but measurably), read-mostly, with small-file
// sized payloads, and site-local artifacts strongly preferred when the
// topology has sites.
func DefaultRemote() RemoteConfig {
	return RemoteConfig{
		OpsPerClientHour: 6,
		ReadFrac:         0.8,
		BytesMedian:      8 * 1024,
		BytesSigma:       1.0,
		SiteAffinity:     0.7,
	}
}

// Config declares a sharded cluster. The zero value is not runnable; at
// minimum Base and Shards must be set. New applies defaults to the rest.
type Config struct {
	// Base is the single-segment community the topology multiplies and
	// shards (usually workload.Default(seed)).
	Base workload.Params
	// Factor scales the community to Factor× the paper's population
	// before sharding (1000 clients = Factor 25). <= 0 means 1.
	Factor float64
	// Shards is the total number of Ethernet segments across all sites.
	// Each segment gets its own netsim instance, server group and
	// community slice.
	Shards int
	// Sites groups the segments into sites joined by a priced WAN tier:
	// segment → site → WAN. 0 or 1 keeps the flat single-site topology.
	// Shards must be divisible by Sites. The community is split
	// site-major (workload.SplitSite then workload.Split), so a site's
	// segments are a pure function of (base seed, site, segment).
	Sites int
	// Tiers prices every backbone link (zero = DefaultTiers). A flat
	// topology is one site, so each of its links pays Tiers.Site.
	Tiers TiersConfig
	// ServersPerShard sizes each shard's server group (0 = the paper's 4).
	ServersPerShard int
	// Remote is the cross-segment traffic mix (zero = DefaultRemote; set
	// Remote.OpsPerClientHour < 0 to disable remote traffic entirely).
	Remote RemoteConfig
	// LeanMetrics skips the per-client metric families in Engine.Reg, the
	// run's one registry; servers, networks, simulators and the scale
	// families still register, and the report computes client cache ratios
	// directly from the clients. A million-client topology would otherwise
	// spend gigabytes on tens of millions of per-client metric instances
	// that no one scrapes at that scale.
	LeanMetrics bool
	// Tune, when set, adjusts each shard's cluster configuration after
	// the defaults are applied (ablations on a sharded world). New then
	// sets ExternalRegistry on every shard, so SamplePeriod must stay 0.
	Tune func(shard int, cfg *cluster.Config)
}

// withDefaults fills the zero values.
func (c Config) withDefaults() Config {
	if c.Factor <= 0 {
		c.Factor = 1
	}
	if c.ServersPerShard <= 0 {
		c.ServersPerShard = 4
	}
	if c.Sites <= 0 {
		c.Sites = 1
	}
	d := DefaultTiers()
	if c.Tiers == (TiersConfig{}) {
		c.Tiers = d
	}
	if c.Tiers.Site.BandwidthBps == 0 {
		c.Tiers.Site.BandwidthBps = d.Site.BandwidthBps
	}
	if c.Tiers.WAN.BandwidthBps == 0 {
		c.Tiers.WAN.BandwidthBps = d.WAN.BandwidthBps
	}
	if c.Remote == (RemoteConfig{}) {
		c.Remote = DefaultRemote()
	}
	if c.Remote.OpsPerClientHour < 0 {
		c.Remote.OpsPerClientHour = 0
	}
	return c
}

// topology derives the shard grid from a defaulted config.
func (c Config) topology() Topology {
	return Topology{Sites: c.Sites, SegsPerSite: c.Shards / c.Sites}
}

// validate rejects configurations the executor cannot run correctly.
func (c Config) validate() error {
	if c.Shards < 1 {
		return fmt.Errorf("scale: need at least one shard (got %d)", c.Shards)
	}
	if c.Sites > c.Shards {
		return fmt.Errorf("scale: %d sites cannot be populated by %d segments", c.Sites, c.Shards)
	}
	if c.Shards%c.Sites != 0 {
		return fmt.Errorf("scale: %d segments do not divide evenly into %d sites", c.Shards, c.Sites)
	}
	if c.Tiers.Site.Latency < 0 || c.Tiers.WAN.Latency < 0 {
		return fmt.Errorf("scale: tier latencies must be non-negative (site %v, wan %v)",
			c.Tiers.Site.Latency, c.Tiers.WAN.Latency)
	}
	if !(c.Tiers.Site.BandwidthBps > 0) || !(c.Tiers.WAN.BandwidthBps > 0) { // NaN too
		return fmt.Errorf("scale: tier bandwidths must be positive (site %g, wan %g)",
			c.Tiers.Site.BandwidthBps, c.Tiers.WAN.BandwidthBps)
	}
	total := workload.ScaleCommunity(c.Base, c.Factor)
	if total.NumClients < c.Shards {
		return fmt.Errorf("scale: %d clients cannot populate %d shards", total.NumClients, c.Shards)
	}
	return nil
}
