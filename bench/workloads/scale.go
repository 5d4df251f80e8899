package workloads

import (
	"io"
	"time"

	"spritefs/bench/harness"
	"spritefs/internal/scale"
	"spritefs/internal/stats"
	"spritefs/internal/workload"
)

// scaleRun is a sharded topology run on the channel-clock executor. The
// two instances use internal/scale in opposite ways: scale_5k is bound by
// events (many rounds, full metrics), wan_lean_50k by population (bootstrap,
// bytes per client, cold caches, lean metrics, few rounds). An executor or
// registry gain for one that costs the other shows on the other.
type scaleRun struct {
	name, why string
	factor    float64
	shards    int
	lean      bool
	// refHorizon is a pass's simulated horizon at RunSeconds.
	refHorizon  time.Duration
	footprintMB int

	eng *scale.Engine
}

func newScale5k() *scaleRun {
	return &scaleRun{
		name:   "scale_5k",
		why:    "Event-bound: 5000 clients, 16 shards, 4 sites, full metrics, tens of thousands of executor rounds. Scheduler, fscache cleaner, executor exchange and registry dominate; trace/analysis bypassed.",
		factor: 125, shards: 16, refHorizon: 36 * time.Minute, footprintMB: 1152,
	}
}

func newWANLean50k() *scaleRun {
	return &scaleRun{
		name:   "wan_lean_50k",
		why:    "Population-bound: 50000 clients, 40 shards, lean metrics, short horizon; the 1M-client run's shape. Bootstrap, bytes/client and cold caches dominate; uses scale the other way from scale_5k.",
		factor: 1250, shards: 40, lean: true, refHorizon: 150 * time.Second, footprintMB: 1920,
	}
}

func (s *scaleRun) Name() string     { return s.name }
func (s *scaleRun) Why() string      { return s.why }
func (*scaleRun) SetupsPerPass() int { return 1 }
func (s *scaleRun) FootprintMB() int { return s.footprintMB }
func (s *scaleRun) Discard()         { s.eng = nil }

func (s *scaleRun) config(env Env) scale.Config {
	return scale.Config{
		Base:   workload.Default(env.Seed),
		Factor: s.factor, Shards: s.shards, Sites: 4,
		LeanMetrics: s.lean,
	}
}

func (s *scaleRun) horizon(env Env) time.Duration {
	return time.Duration(env.scaled(float64(s.refHorizon)))
}

func (s *scaleRun) Setup(env Env, tr *harness.Tracer) (int, error) {
	end := tr.Begin("scale", "New")
	eng, err := scale.New(s.config(env))
	end()
	if err != nil {
		return 0, err
	}
	s.eng = eng
	return eng.Clients(), nil
}

func (s *scaleRun) Run(env Env, tr *harness.Tracer) (*Pass, error) {
	eng := s.eng
	horizon := s.horizon(env)
	pass := &Pass{}

	ph := beginPhase()
	end := tr.Begin("scale", "Run")
	st := eng.Run(scale.RunOptions{Horizon: horizon, Parallel: true, Workers: env.Procs})
	end()
	end = tr.Begin("scale", "Report")
	rep := eng.Report()
	end()
	pass.Wall, pass.CPU, pass.Runtime = ph.end()

	lc := newLayerCounts()
	lc.addRegistry(eng.Reg, len(eng.Shards), horizon)
	d := newDigester()
	if err := d.addRegistry(eng.Reg); err != nil {
		return nil, err
	}
	pass.Digest = d.sum()

	// A remote operation still in flight when the drain window closes is
	// the one way this workload can lose a request.
	pass.Work = float64(rep.TotalOpens)
	pass.Attempted = rep.TotalOpens + st.Exec.Routed
	pass.Failed = st.Exec.Undelivered + lc.abortedOps
	if p := lc.writebackProblem(); p != "" {
		pass.problemf("%s", p)
	}

	// The report's hit ratio is read off the client caches, so it exists in
	// lean runs too, where the registry has no per-client families.
	lc.m["fscache.read_hit_ratio"] = rep.CacheHit
	var remote stats.Welford
	for i := range rep.PerShard {
		remote.Merge(rep.PerShard[i].Remote.Latency)
	}
	pass.Layer = lc.finish()
	for k, v := range map[string]float64{
		"scale.rounds":                 float64(st.Exec.Rounds),
		"scale.null_advances":          float64(st.Exec.NullAdvances),
		"scale.rescues":                float64(st.Exec.Rescues),
		"scale.routed_msgs":            float64(st.Exec.Routed),
		"scale.routed_bytes":           float64(st.Exec.RoutedBytes),
		"scale.undelivered":            float64(st.Exec.Undelivered),
		"scale.msg_allocs":             float64(st.Exec.MsgAllocs),
		"scale.router_util":            rep.RouterUtil,
		"scale.wan_util":               rep.WANUtil,
		"scale.remote_latency_mean_ms": remote.Mean() / 1e6,
	} {
		pass.Layer[k] = v
	}
	if tr != nil {
		end = tr.Begin("metrics", "snapshot")
		points := eng.Reg.Snapshot()
		err := eng.Reg.WritePrometheus(io.Discard)
		end()
		if err != nil {
			return nil, err
		}
		for _, p := range points {
			if p.Name == "spritefs_scale_advance_seconds_mean" {
				pass.Layer["scale.advance_mean_ms"] = p.Float * 1e3
			}
		}
		pass.Layer["scale.build_s"] = tr.Total("scale", "New").Seconds()
		pass.Layer["scale.run_s"] = tr.Total("scale", "Run").Seconds()
		pass.Layer["scale.report_s"] = tr.Total("scale", "Report").Seconds()
		pass.Layer["metrics.snapshot_s"] = tr.Total("metrics", "snapshot").Seconds()
	}
	s.eng = nil // a finished engine cannot run again
	return pass, nil
}

// TracedExtras measures scale.parallel_speedup: the same topology at a
// quarter of the horizon, sequential wall over parallel wall. It is
// ROADMAP 1c's number and only means what GOMAXPROCS (published beside it
// as runtime.gomaxprocs) lets it mean.
func (s *scaleRun) TracedExtras(env Env) (map[string]float64, error) {
	walls := make([]time.Duration, 2)
	for i, parallel := range []bool{false, true} {
		eng, err := scale.New(s.config(env))
		if err != nil {
			return nil, err
		}
		st := eng.Run(scale.RunOptions{Horizon: s.horizon(env) / 4, Parallel: parallel, Workers: env.Procs})
		walls[i] = st.Wall
	}
	return map[string]float64{"scale.parallel_speedup": walls[0].Seconds() / walls[1].Seconds()}, nil
}
