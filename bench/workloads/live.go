package workloads

import (
	"fmt"
	"sync/atomic"
	"time"

	"spritefs/bench/harness"
	"spritefs/internal/live"
)

// Reference shape of live_soak. The measuring time is split 6:4 between
// the open-loop phase (whose first sixth only warms up) and the
// closed-loop phase.
const (
	liveAgents       = 40
	liveSessionRate  = 3000.0 // open-loop session arrivals per second, ≈18 k requests/s
	liveClosedLoop   = 2048   // sessions in flight in the closed-loop phase
	liveOpenShare    = 0.6
	liveWarmShare    = 1.0 / 6
	liveMaxLateRatio = 0.01
	// liveBootstrapSeed fixes the service's file population. The workload
	// seed generates the load — the schedule and every session's script —
	// but not the server group it meets: bootstrapped from the workload seed,
	// the heap after set-up would move 7 % from seed to seed for reasons
	// that are the generator's, and heap_kb_per_client could not be bounded
	// tightly enough to be of use on the workloads it is there for.
	liveBootstrapSeed = 1
)

// liveSoak is the one wall-clock, concurrent workload: the cluster served
// by internal/live's dispatcher loop over the in-process transport.
//
// Phase A is an open loop — sessions arrive on a Poisson schedule fixed by
// the seed, regardless of how the service keeps up, as independent users
// would — at under a tenth of saturation: it shows what a user of cmd/serve
// sees. Phase B is a closed loop of liveClosedLoop sessions with no think
// time: it shows what the dispatcher loop can carry.
type liveSoak struct {
	svc *live.Service
}

func newLiveSoak() *liveSoak { return &liveSoak{} }

func (*liveSoak) Name() string { return "live_soak" }
func (*liveSoak) Why() string {
	return "The only wall-clock, concurrent workload: live dispatcher loop, sim.Clock seam, RPC path. Open loop at 3000 sessions/s (user-visible latency), then closed loop of 2048 sessions (throughput)."
}

// Starting the service takes milliseconds; many repeats steady the median.
func (*liveSoak) SetupsPerPass() int { return 9 }
func (*liveSoak) FootprintMB() int   { return 128 }

func (l *liveSoak) Discard() {
	if l.svc != nil {
		l.svc.Drain()
		l.svc = nil
	}
}

func (l *liveSoak) Setup(env Env, tr *harness.Tracer) (int, error) {
	end := tr.Begin("live", "NewService")
	svc, err := live.NewService(live.ServiceConfig{Agents: liveAgents, Seed: liveBootstrapSeed})
	end()
	if err != nil {
		return 0, err
	}
	end = tr.Begin("live", "Start")
	err = svc.Start()
	end()
	if err != nil {
		return 0, err
	}
	l.svc = svc
	return liveAgents, nil
}

func (l *liveSoak) Run(env Env, tr *harness.Tracer) (*Pass, error) {
	svc := l.svc
	l.svc = nil // drained below; a drained service serves nothing
	lengthA := time.Duration(env.passSeconds() * liveOpenShare * float64(time.Second))
	lengthB := time.Duration(env.passSeconds()*float64(time.Second)) - lengthA
	warm := time.Duration(float64(lengthA) * liveWarmShare)
	sched := OpenLoopSchedule(env.Seed, liveSessionRate, lengthA, liveAgents)

	var retries atomic.Int64
	disp := live.NewDispatcher(svc.WC, svc.Exec)
	disp.OnRetry(func() { retries.Add(1) })
	gen := &generator{tr: disp, private: svc.AgentFiles, shared: svc.SharedFiles()}
	pass := &Pass{}

	ph := beginPhase()
	end := tr.Begin("live", "open loop")
	a := gen.openLoop(sched, warm)
	end()
	cpuA := harness.CPUTime() - ph.cpu
	end = tr.Begin("live", "closed loop")
	startB := time.Now()
	b := gen.closedLoop(env.Seed, liveClosedLoop, liveAgents, lengthB)
	tailB := time.Since(startB) - lengthB
	end()
	pass.Wall, pass.CPU, pass.Runtime = ph.end()

	elapsed := svc.WC.Now()
	end = tr.Begin("live", "Drain")
	svc.Drain()
	end()

	pass.Work = float64(b.inWindow)
	pass.WorkWall = lengthB
	pass.Attempted = a.requests + b.requests
	pass.Failed = a.failed + b.failed
	if opened, closed := a.opened+b.opened, a.closed+b.closed; opened != closed {
		pass.problemf("%d sessions opened a file but only %d closed it", opened, closed)
	}
	if pass.Failed > 0 {
		pass.problemf("%d of %d requests failed (%d timed out)", pass.Failed, pass.Attempted, a.timeouts+b.timeouts)
	}

	// After Drain the loop has exited and the registry is ours to read.
	lc := newLayerCounts()
	lc.addRegistry(svc.Cluster.Reg, 1, elapsed)
	if p := lc.writebackProblem(); p != "" {
		pass.problemf("%s", p)
	}
	pass.Layer = lc.finish()
	pass.Layer["live.requests"] = float64(pass.Attempted)
	pass.Layer["live.retries"] = float64(retries.Load())
	pass.Layer["live.timeouts"] = float64(a.timeouts + b.timeouts)

	all := func(*sample) bool { return true }
	wall := func(s *sample) time.Duration { return s.latency }
	opens := latencies(a.samples, func(s *sample) bool { return s.verb == live.VerbOpen }, wall, time.Millisecond)
	p50, _ := harness.Percentile(opens, 50)
	pass.Layer["live.open_p50_ms"] = p50
	tailP, tail := harness.TailPercentile(latencies(a.samples, all, wall, time.Millisecond))
	pass.Layer["live.p99_ms"] = tail
	over := latencies(a.samples, all, func(s *sample) time.Duration { return s.overhead }, time.Microsecond)
	pass.Layer["live.overhead_p50_us"], _ = harness.Percentile(over, 50)
	_, pass.Layer["live.overhead_p99_us"] = harness.TailPercentile(over)
	lateRatio := float64(a.late) / float64(a.requests)
	pass.Layer["live.late_ratio"] = lateRatio

	pass.Notes = append(pass.Notes,
		fmt.Sprintf("open loop: %d sessions, %d requests sampled (n=%d opens), tail reported at p%.0f", len(sched), len(a.samples), len(opens), tailP),
		fmt.Sprintf("closed loop: %d requests in %v (+%v for sessions in flight to close)", b.inWindow, lengthB, tailB.Round(time.Millisecond)),
		fmt.Sprintf("cpu: %.2fs open loop, %.2fs closed loop", cpuA.Seconds(), (pass.CPU-cpuA).Seconds()))
	if lateRatio > liveMaxLateRatio {
		pass.Notes = append(pass.Notes, fmt.Sprintf(
			"open-loop generator sent %.2f%% of requests more than %v late: the phase A latencies are the generator's, not the service's", 100*lateRatio, lateAfter))
	}
	return pass, nil
}
