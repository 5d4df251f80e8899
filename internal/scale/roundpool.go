package scale

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// pollFor is how long an idle helper watches the claim word for the next
// round before it parks. The gap between two rounds is the caller's
// floors, bounds and exchange; a helper parked in that gap costs a kernel
// wake-up per round, and one polling through it costs a core. Measured
// with spritebench on a 2-vCPU VM at GOMAXPROCS=2: helpers that never
// park raised wan_lean_50k's cpu_s by 33 %, past its 25 % bound; a bound
// of about 3 µs lost half of scale_5k's wall_s gain; at 30 µs scale_5k's
// wall_s fell 20 % for 15 % more cpu_s. Since the floors and bounds
// fold per site rather than per link, the gap is about 4 µs a round on
// wan_lean_50k's 40 shards, where it was about 25 µs. Four alternating pairs of 10 µs against 30 µs then read
// wan_lean_50k's wall_s 0.879 against 0.797 s and cpu_s 1.58 against
// 1.50 s (30 µs lower in 4 of 4), and scale_5k's wall_s 2.65 against
// 2.36 s (30 µs lower in 3 of 4), so the bound stays at 30 µs.
const pollFor = 30 * time.Microsecond

// The claim word is a round tag above leftBits bits counting the round's
// jobs not yet claimed.
const (
	leftBits = 32
	leftMask = 1<<leftBits - 1
)

// roundPool runs rounds of independent jobs on the calling goroutine and a
// fixed set of helper goroutines. A round is published as one atomic claim
// word, and every claimer, the caller included, takes job left-1 by a
// compare-and-swap of the word to left-1. The count left is the cursor and
// the bound at once, so a claim needs nothing read beside the word: a
// claimer delayed across rounds either fails its swap or takes a job of
// the round it finds. The tag tells a helper a new round from the one it
// last drained. The caller returns from run when the count of unfinished
// jobs reaches zero, which orders every job's effects before whatever the
// caller does next.
type roundPool struct {
	helpers int
	word    atomic.Uint64 // round tag << leftBits | jobs left to claim
	pending atomic.Int64  // jobs of the round not yet finished
	// do and base are the published round's jobs: claim left-1 runs
	// do(base+left-1). The caller writes them only while no job is
	// claimable or running.
	do   func(i int)
	base int

	mu      sync.Mutex
	wake    *sync.Cond
	parked  atomic.Int32 // helpers waiting on wake (changed under mu)
	stopped atomic.Bool
	exited  sync.WaitGroup
}

// newRoundPool starts the pool's helper goroutines; with none, run is a
// plain loop on the caller.
func newRoundPool(helpers int) *roundPool {
	p := &roundPool{helpers: max(helpers, 0)}
	p.wake = sync.NewCond(&p.mu)
	p.exited.Add(p.helpers)
	for i := 0; i < p.helpers; i++ {
		go p.help()
	}
	return p
}

// run calls do(i) once for every i in [0, n) and returns when all have
// returned. With no helpers, or a single job, the caller runs them in
// index order itself.
func (p *roundPool) run(n int, do func(i int)) {
	if p.helpers == 0 || n < 2 {
		for i := 0; i < n; i++ {
			do(i)
		}
		return
	}
	p.do = do
	// A count wider than the claim word is published as several rounds.
	for base := 0; base < n; base += leftMask {
		left := min(n-base, leftMask)
		p.base = base
		p.pending.Store(int64(left))
		p.word.Store((p.word.Load()>>leftBits+1)<<leftBits | uint64(left))
		if p.parked.Load() > 0 {
			p.mu.Lock()
			p.wake.Broadcast()
			p.mu.Unlock()
		}
		p.claim()
		for p.pending.Load() > 0 {
			runtime.Gosched()
		}
	}
}

// claim runs jobs of the published round until none is left to claim.
func (p *roundPool) claim() {
	for {
		w := p.word.Load()
		left := w & leftMask
		if left == 0 {
			return
		}
		if p.word.CompareAndSwap(w, w-1) {
			p.do(p.base + int(left-1))
			p.pending.Add(-1)
		}
	}
}

// help is a helper goroutine's life: claim from every round it sees until
// the pool stops.
func (p *roundPool) help() {
	defer p.exited.Done()
	var seen uint64 // tag of the last round this helper claimed from
	for {
		if tag := p.word.Load() >> leftBits; tag != seen {
			seen = tag
			p.claim()
		} else if !p.await(seen) {
			return
		}
	}
}

// await waits for a round tagged after seen: it polls the claim word for
// pollFor, then parks until a publish or stop wakes it. It reports false
// once the pool is stopped.
func (p *roundPool) await(seen uint64) bool {
	for start := time.Now(); time.Since(start) < pollFor; {
		if p.word.Load()>>leftBits != seen {
			return true
		}
		if p.stopped.Load() {
			return false
		}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	// Counting itself parked before the last look at the word means a
	// publish either sees the count and wakes it, or came first and is
	// seen here.
	p.parked.Add(1)
	for p.word.Load()>>leftBits == seen && !p.stopped.Load() {
		p.wake.Wait()
	}
	p.parked.Add(-1)
	return !p.stopped.Load()
}

// stop ends the helpers, parked or polling, and returns once they have
// exited. The pool runs no round after it.
func (p *roundPool) stop() {
	p.stopped.Store(true)
	p.mu.Lock()
	p.wake.Broadcast()
	p.mu.Unlock()
	p.exited.Wait()
}
