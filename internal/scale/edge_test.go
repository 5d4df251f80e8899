package scale_test

import (
	"testing"
	"time"

	"spritefs/internal/scale"
	"spritefs/internal/workload"
)

// chattyConfig is a small topology with enough remote traffic that every
// pricing edge case actually moves messages.
func chattyConfig(seed int64, shards int) scale.Config {
	cfg := testConfig(seed, shards)
	cfg.Remote = scale.DefaultRemote()
	cfg.Remote.OpsPerClientHour = 300
	return cfg
}

// assertConserved checks that the remote-traffic flow balanced: every
// issued operation was served and completed, so nothing deadlocked or was
// delivered out of its lookahead window.
func assertConserved(t *testing.T, e *scale.Engine) {
	t.Helper()
	rep := e.Report()
	var issued, served, replies int64
	for _, s := range rep.PerShard {
		issued += s.Remote.OpsIssued
		served += s.Remote.OpsServed
		replies += s.Remote.Replies
	}
	if issued == 0 {
		t.Fatal("no remote operations issued; the test exercises nothing")
	}
	if served != issued || replies != issued {
		t.Errorf("flow not conserved: issued %d, served %d, replied %d (undelivered %d)",
			issued, served, replies, rep.Exec.Undelivered)
	}
}

// assertExecutorInvariant runs the same config sequentially and at
// several worker counts and requires byte-identical output.
func assertExecutorInvariant(t *testing.T, cfg scale.Config, horizon time.Duration) *scale.Engine {
	t.Helper()
	ref := scale.MustNew(cfg)
	ref.Run(scale.RunOptions{Horizon: horizon})
	want := fingerprint(t, ref)
	for _, w := range []int{1, 4} {
		e := scale.MustNew(cfg)
		e.Run(scale.RunOptions{Horizon: horizon, Parallel: true, Workers: w})
		if got := fingerprint(t, e); got != want {
			t.Errorf("workers=%d output differs from sequential\n%s", w, firstDiff(want, got))
		}
	}
	return ref
}

// TestZeroLatencyLink prices the links inside each of two sites at
// exactly zero while the WAN keeps a price: the channel clocks on the
// intra-site links offer no lookahead, so the executor must fall back to
// strictly-bounded advances without deadlocking or reordering delivery.
func TestZeroLatencyLink(t *testing.T) {
	cfg := chattyConfig(21, 4)
	cfg.Sites = 2
	cfg.Tiers = scale.TiersConfig{
		Site: scale.Tier{BandwidthBps: 12.5e6},
		WAN:  scale.Tier{Latency: time.Millisecond, BandwidthBps: 5.625e6},
	}
	e := assertExecutorInvariant(t, cfg, 30*time.Minute)
	assertConserved(t, e)
}

// TestAllLinksZeroLatency is the degenerate extreme: both tiers cost
// nothing, so every link, within a site and across the WAN, offers zero
// lookahead and the executor's only safe mode is the serialized
// stall-breaker. The run must still terminate, conserve traffic, and be
// byte-identical at every worker count.
func TestAllLinksZeroLatency(t *testing.T) {
	cfg := chattyConfig(22, 4)
	cfg.Sites = 2
	cfg.Tiers = scale.TiersConfig{Site: scale.Tier{BandwidthBps: 12.5e6}} // both latencies 0
	e := assertExecutorInvariant(t, cfg, 20*time.Minute)
	assertConserved(t, e)
	if e.Report().Exec.Rescues == 0 {
		t.Error("all-zero-latency topology ran without stall rescues; the stall-breaker was not exercised")
	}
}

// TestSubTickLinkLatency prices links at 50µs, orders of magnitude below
// every daemon period: the scheduler orders events by their exact
// (time, seq), so lookahead windows that narrow cannot reorder or lose
// messages. (The "tick" was the ~4.2ms bucket of the timer wheel that
// recurring daemons used to live on.)
func TestSubTickLinkLatency(t *testing.T) {
	cfg := chattyConfig(23, 3)
	cfg.Tiers.Site = scale.Tier{Latency: 50 * time.Microsecond, BandwidthBps: 1e9}
	e := assertExecutorInvariant(t, cfg, 30*time.Minute)
	assertConserved(t, e)
}

// TestSingleShardDegenerate pins the one-shard topology: no links, no
// lookahead to compute, no remote traffic — the executor must collapse
// to a handful of whole-phase rounds rather than deadlock on an empty
// link set.
func TestSingleShardDegenerate(t *testing.T) {
	p := workload.Default(24)
	p.NumClients = 8
	p.DailyUsers = 6
	p.OccasionalUsers = 1
	p.BigSimUsers = 1
	cfg := scale.Config{Base: p, Shards: 1, ServersPerShard: 2}
	e := scale.MustNew(cfg)
	st := e.Run(scale.RunOptions{Horizon: 30 * time.Minute, Parallel: true})
	if st.Exec.Routed != 0 || st.Exec.NullAdvances != 0 || st.Exec.Rescues != 0 {
		t.Errorf("single-shard run touched the router: %+v", st.Exec)
	}
	if st.Exec.Rounds > 2 {
		t.Errorf("single-shard run took %d rounds; want at most one per phase", st.Exec.Rounds)
	}
}

// TestNegativeLinkLatencyRejected pins validation of link pricing: a
// negative WAN tier would price every cross-site link below the site
// tier's, and below zero once the WAN outweighs two site hops.
func TestNegativeLinkLatencyRejected(t *testing.T) {
	cfg := testConfig(25, 2)
	cfg.Sites = 2
	cfg.Tiers = scale.DefaultTiers()
	cfg.Tiers.WAN.Latency = -time.Microsecond
	if _, err := scale.New(cfg); err == nil {
		t.Error("negative WAN latency accepted")
	}
}

// TestHeterogeneousLinksBeatUniformBound pins the point of per-link
// clocks: on two sites of two segments, a slow WAN must buy the
// cross-site links wide windows instead of throttling every shard to the
// site tier's pace. The deterministic rounds counter is the
// executor-efficiency measure: the same topology must need fewer rounds
// with a 20 ms WAN than with a zero-latency one, whose cross-site links
// cost only the two site hops.
func TestHeterogeneousLinksBeatUniformBound(t *testing.T) {
	base := chattyConfig(26, 4)
	base.Sites = 2
	base.Tiers = scale.TiersConfig{Site: scale.Tier{Latency: time.Millisecond, BandwidthBps: 12.5e6}}

	het := base
	het.Tiers.WAN.Latency = 20 * time.Millisecond

	su := scale.MustNew(base).Run(scale.RunOptions{Horizon: 30 * time.Minute})
	eh := scale.MustNew(het)
	sh := eh.Run(scale.RunOptions{Horizon: 30 * time.Minute})

	if sh.Exec.Rounds >= su.Exec.Rounds {
		t.Errorf("a 20 ms WAN took %d rounds, a zero-latency one %d; per-link lookahead bought nothing",
			sh.Exec.Rounds, su.Exec.Rounds)
	}
	assertConserved(t, eh)
}
