package scale_test

import (
	"fmt"
	"testing"
	"time"

	"spritefs/internal/scale"
	"spritefs/internal/workload"
)

// benchHorizon keeps one iteration of the 1000-client macro benchmark in
// the single-digit seconds on commodity hardware.
const benchHorizon = 15 * time.Minute

// BenchmarkScaleEngine is the throughput-vs-shards macro benchmark: the
// same 1000-client community run as one segment and as eight. The
// clients=/shards= labels in the sub-benchmark name are what `make
// profile` and docs/PERFORMANCE.md select on. The shards=1 row is the
// sequential executor; multi-shard rows use the parallel executor, so
// the ratio between them is the wall-clock speedup sharding buys on this
// host (bounded by usable cores — on a single-core host expect ~1x).
func BenchmarkScaleEngine(b *testing.B) {
	for _, shards := range []int{1, 8} {
		b.Run(fmt.Sprintf("clients=1000/shards=%d", shards), func(b *testing.B) {
			cfg := scale.Config{
				Base:   workload.Default(42),
				Factor: 25,
				Shards: shards,
			}
			opts := scale.RunOptions{Horizon: benchHorizon, Parallel: shards > 1}
			for i := 0; i < b.N; i++ {
				scale.MustNew(cfg).Run(opts)
			}
		})
	}
}

// BenchmarkScaleWorkers pins the worker-count axis: the eight-shard
// community run by one worker, by two (the reference host's core count)
// and by eight on the channel-clock executor, the calling goroutine
// counted as a worker. The ratio of a row to the workers=1 row is that
// count's wall-clock speedup (docs/PERFORMANCE.md records them); it tracks
// the host's usable cores, since the executor's rounds and exchanges are
// identical at every count.
func BenchmarkScaleWorkers(b *testing.B) {
	for _, workers := range []int{1, 2, 8} {
		b.Run(fmt.Sprintf("clients=1000/shards=8/workers=%d", workers), func(b *testing.B) {
			cfg := scale.Config{
				Base:   workload.Default(42),
				Factor: 25,
				Shards: 8,
			}
			opts := scale.RunOptions{Horizon: benchHorizon, Parallel: true, Workers: workers}
			for i := 0; i < b.N; i++ {
				scale.MustNew(cfg).Run(opts)
			}
		})
	}
}

// BenchmarkWANScale is the hierarchical-topology macro benchmark: the
// 1000-client community on a fixed 8-segment grid, flat (sites=1) and
// re-grouped into 2 and 4 sites under WAN tier pricing. The name carries
// clients/sites/segs labels so the rows read as cost vs tier depth; a
// tier-pricing regression (say, the router pricing walk going quadratic)
// shows up here before it shows up in a million-client run.
func BenchmarkWANScale(b *testing.B) {
	for _, sites := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("clients=1000/sites=%d/segs=8", sites), func(b *testing.B) {
			cfg := scale.Config{
				Base:   workload.Default(42),
				Factor: 25,
				Shards: 8,
				Sites:  sites,
			}
			opts := scale.RunOptions{Horizon: benchHorizon, Parallel: true}
			for i := 0; i < b.N; i++ {
				scale.MustNew(cfg).Run(opts)
			}
		})
	}
}

// BenchmarkWANScaleQuick is BenchmarkWANScale's quick variant: a small
// two-site community, cheap enough to repeat many times while working,
// sensitive to regressions in tier pricing, placement lookups and the
// cross-site gateway path.
func BenchmarkWANScaleQuick(b *testing.B) {
	p := workload.Default(7)
	p.NumClients = 16
	p.DailyUsers = 12
	p.OccasionalUsers = 4
	cfg := scale.Config{Base: p, Shards: 4, Sites: 2, ServersPerShard: 1}
	cfg.Remote = scale.DefaultRemote()
	cfg.Remote.OpsPerClientHour = 600 // one remote op per client every 6s
	opts := scale.RunOptions{Horizon: 10 * time.Minute, Parallel: true}
	for i := 0; i < b.N; i++ {
		scale.MustNew(cfg).Run(opts)
	}
}

// BenchmarkScaleBarrier isolates the executor overhead: a small community
// where remote messages (and so exchange rounds) dominate the per-shard
// work.
func BenchmarkScaleBarrier(b *testing.B) {
	p := workload.Default(7)
	p.NumClients = 16
	p.DailyUsers = 12
	p.OccasionalUsers = 4
	cfg := scale.Config{Base: p, Shards: 4, ServersPerShard: 1}
	cfg.Remote = scale.DefaultRemote()
	cfg.Remote.OpsPerClientHour = 600 // one remote op per client every 6s
	opts := scale.RunOptions{Horizon: 10 * time.Minute, Parallel: true}
	for i := 0; i < b.N; i++ {
		scale.MustNew(cfg).Run(opts)
	}
}
