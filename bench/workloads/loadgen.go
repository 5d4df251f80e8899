package workloads

import (
	"errors"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"spritefs/internal/live"
)

// The live service's own Fleet is a closed loop with private pacing, so the
// benchmark brings its own generator. A session is the paper's short
// sequential access in miniature, the mix cmd/serve's agents use: open, a
// few 4 KB reads or writes, close; one session in ten is a lone getattr.

// Session is one scripted client session. Due is when it starts, as an
// offset from the start of its phase.
type Session struct {
	Due     time.Duration
	Agent   int32
	Getattr bool // a lone getattr instead of open..close
	Shared  bool // target a file every agent sees, not a private one
	File    int  // index into the chosen file list, reduced modulo its length
	Write   bool
	Ops     int // reads or writes between open and close
}

const (
	sessionGetattrShare = 0.10
	sessionSharedShare  = 0.20
	sessionWriteShare   = 0.25
	sessionMinOps       = 2
	sessionMaxOps       = 7
	transferBytes       = 4096
	// requestDeadline bounds one request, retries included. The model's
	// slowest reply is a 63 ms disk tail; a request that needs two seconds
	// has failed.
	requestDeadline = 2 * time.Second
	// lateAfter is how long past its due time a request may be sent before
	// it counts as late. The reference microVM's kernel has no
	// high-resolution timers: an idle process's sleep is rounded up to a
	// 1.08 ms tick (time.Sleep(50µs) takes 1.1 ms), and a generator that
	// sleeps until a session is due — as it must, unless it burns the CPU
	// the phase is there to measure — cannot start it more precisely than
	// that. Two such ticks and a wake-up; on a host with fine timers
	// lateness is tens of microseconds and the threshold is merely lax.
	lateAfter = 2500 * time.Microsecond
)

// nextSession draws one session's script.
func nextSession(rng *rand.Rand, agents int) Session {
	return Session{
		Agent:   int32(rng.Intn(agents)),
		Getattr: rng.Float64() < sessionGetattrShare,
		Shared:  rng.Float64() < sessionSharedShare,
		File:    rng.Intn(1 << 20),
		Write:   rng.Float64() < sessionWriteShare,
		Ops:     sessionMinOps + rng.Intn(sessionMaxOps-sessionMinOps+1),
	}
}

// OpenLoopSchedule is the whole open-loop phase as a pure function of the
// seed: sessions arriving as a Poisson process of the given rate for the
// given time.
func OpenLoopSchedule(seed int64, rate float64, length time.Duration, agents int) []Session {
	rng := rand.New(rand.NewSource(seed))
	var out []Session
	at := time.Duration(0)
	for {
		at += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if at >= length {
			return out
		}
		s := nextSession(rng, agents)
		s.Due = at
		out = append(out, s)
	}
}

// sample is one open-loop request as its issuer saw it.
type sample struct {
	verb     live.Verb
	latency  time.Duration // completion − due
	overhead time.Duration // time in flight − the model's simulated service time
}

// tally is what a generator goroutine counts; tallies add up.
type tally struct {
	requests, failed, timeouts int64
	late                       int64
	opened, closed             int64
	inWindow                   int64 // completed before the phase's deadline
	samples                    []sample
}

func (t *tally) add(o *tally) {
	t.requests += o.requests
	t.failed += o.failed
	t.timeouts += o.timeouts
	t.late += o.late
	t.opened += o.opened
	t.closed += o.closed
	t.inWindow += o.inWindow
	t.samples = append(t.samples, o.samples...)
}

// generator drives sessions against one service.
type generator struct {
	tr      live.Transport
	private func(agent int) []live.FileRef
	shared  []live.FileRef
}

func (g *generator) file(s *Session) live.FileRef {
	list := g.private(int(s.Agent))
	if (s.Shared && len(g.shared) > 0) || len(list) == 0 {
		list = g.shared
	}
	return list[s.File%len(list)]
}

// do issues one request that was due at due. record says whether to keep
// a latency sample; window, when non-zero, is the deadline for counting the
// request towards saturation throughput.
func (g *generator) do(t *tally, req live.Request, due time.Time, record bool, window time.Time) (live.Response, bool) {
	sent := time.Now()
	resp, err := g.tr.Do(req, requestDeadline)
	done := time.Now()
	ok := err == nil && resp.OK()
	t.requests++
	if !ok {
		t.failed++
		if errors.Is(err, live.ErrDeadline) {
			t.timeouts++
		}
	}
	if sent.Sub(due) > lateAfter {
		t.late++
	}
	if !window.IsZero() && done.Before(window) {
		t.inWindow++
	}
	if record {
		t.samples = append(t.samples, sample{
			verb:     req.Verb,
			latency:  done.Sub(due),
			overhead: done.Sub(sent) - resp.SimLat,
		})
	}
	return resp, ok
}

// run plays one session whose first request was due at due. Every later
// request is due the moment its predecessor completes.
func (g *generator) run(t *tally, s *Session, due time.Time, record bool, window time.Time) {
	f := g.file(s)
	if s.Getattr {
		g.do(t, live.Request{Verb: live.VerbGetattr, Agent: s.Agent, File: f.ID}, due, record, window)
		return
	}
	resp, ok := g.do(t, live.Request{Verb: live.VerbOpen, Agent: s.Agent, File: f.ID, Write: s.Write}, due, record, window)
	if !ok {
		return
	}
	t.opened++
	size := f.Size
	if resp.Size > 0 {
		size = resp.Size
	}
	n := int64(transferBytes)
	if size > 0 && size < n {
		n = size
	}
	verb := live.VerbRead
	if s.Write {
		verb = live.VerbWrite
	}
	for k := 0; k < s.Ops; k++ {
		var off int64
		if size > n {
			off = int64(k) * n % (size - n + 1)
		}
		req := live.Request{Verb: verb, Agent: s.Agent, Handle: resp.Handle, Offset: off, Length: n}
		if _, ok := g.do(t, req, time.Now(), record, window); !ok {
			break // close what was opened all the same
		}
	}
	if _, ok := g.do(t, live.Request{Verb: live.VerbClose, Agent: s.Agent, Handle: resp.Handle}, time.Now(), record, window); ok {
		t.closed++
	}
}

// openLoop plays a schedule on its own clock: each session starts when it
// is due whether or not earlier ones have finished, one goroutine each, so
// a slow service meets a growing queue rather than a patient client.
// Sessions due before warm are played but not sampled. It returns once the
// last session has finished.
func (g *generator) openLoop(sched []Session, warm time.Duration) *tally {
	var (
		mu    sync.Mutex
		total tally
		wg    sync.WaitGroup
	)
	start := time.Now()
	for i := range sched {
		s := &sched[i]
		due := start.Add(s.Due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var t tally
			g.run(&t, s, due, s.Due >= warm, time.Time{})
			mu.Lock()
			total.add(&t)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return &total
}

// closedLoop keeps a fixed number of sessions in flight with no think time
// for length: each worker starts its next session the moment the last one
// closes. Workers finish the session they are in when time is up, so
// everything opened is closed; only requests completed inside the window
// count towards throughput.
func (g *generator) closedLoop(seed int64, workers, agents int, length time.Duration) *tally {
	var (
		total   tally
		tallies = make([]tally, workers)
		wg      sync.WaitGroup
		stop    atomic.Bool
	)
	deadline := time.Now().Add(length)
	timer := time.AfterFunc(length, func() { stop.Store(true) })
	defer timer.Stop()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed ^ int64(w+1)*0x9e3779b97f4a7c))
			for !stop.Load() {
				s := nextSession(rng, agents)
				g.run(&tallies[w], &s, time.Now(), false, deadline)
			}
		}(w)
	}
	wg.Wait()
	for w := range tallies {
		total.add(&tallies[w])
	}
	return &total
}

// latencies returns the ascending latencies, in milliseconds, of the
// samples keep accepts.
func latencies(samples []sample, keep func(*sample) bool, pick func(*sample) time.Duration, unit time.Duration) []float64 {
	var out []float64
	for i := range samples {
		if keep(&samples[i]) {
			out = append(out, float64(pick(&samples[i]))/float64(unit))
		}
	}
	sort.Float64s(out)
	return out
}
