package cluster

import (
	"testing"
	"time"

	"spritefs/internal/client"
	"spritefs/internal/faults"
	"spritefs/internal/fscache"
	"spritefs/internal/netsim"
	"spritefs/internal/workload"
)

// dirty has cl create a file and leave n dirty bytes of it in its cache.
func dirty(t *testing.T, cl *client.Client, n int64) {
	t.Helper()
	file := cl.Create(cl.ID(), 1, false, false)
	h, _, err := cl.Open(cl.ID(), 1, file, false, true, false)
	if err != nil {
		t.Fatal(err)
	}
	cl.Write(h, n)
	if _, err := cl.Close(h); err != nil {
		t.Fatal(err)
	}
}

func mustParseFaults(t *testing.T, text string) faults.Schedule {
	t.Helper()
	s, err := faults.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// smallCommunity is a ten-workstation cluster with every daemon the batch
// runs have: system processes, cleaners and the sampler.
func smallCommunity(t *testing.T, faultText string) *Cluster {
	t.Helper()
	p := workload.ScaleCommunity(workload.Default(7), 0.25)
	p.EmitBackupNoise = false
	cfg := DefaultConfig(p)
	cfg.CollectTrace = false
	cfg.Faults = mustParseFaults(t, faultText)
	return New(cfg)
}

// TestCleanTickSchedulesNothing pins what lets one timer per phase stand
// in for one timer per workstation: a cleaner firing — with dirty, due
// data to ship, through a wire whose fault hook delays every RPC and drops
// every other one — leaves the event set exactly as it found it. Were a
// firing to schedule anything, that event's seq would fall between two
// members of the phase and the block would stop being contiguous.
func TestCleanTickSchedulesNothing(t *testing.T) {
	c := smallCommunity(t, "delay@0s/1h/20ms,drop@0s/1h/500ms/2")
	c.StartDaemons()
	c.Sim.RunUntil(100 * time.Second)
	for _, cl := range c.Clients {
		dirty(t, cl, 3*fscache.BlockSize+100)
	}
	c.Sim.RunUntil(112*time.Second + 500*time.Millisecond)
	// Nothing is 30 s old yet, so the daemons shipped none of it; a shorter
	// delay makes all of it due at this instant, between two firings.
	for _, cl := range c.Clients {
		if cl.BytesWrittenBack() != 0 {
			t.Fatalf("client %d shipped %d bytes before anything was due", cl.ID(), cl.BytesWrittenBack())
		}
		cl.Cache.SetWritebackDelay(10 * time.Second)
	}
	pending, fired := c.Sim.Pending(), c.Sim.Fired()
	next, _ := c.Sim.NextAt()
	now := c.Sim.Now()
	for _, cl := range c.Clients {
		cl.CleanTick(now)
		if got := cl.BytesWrittenBack(); got != 3*fscache.BlockSize+100 {
			t.Errorf("client %d's tick shipped %d bytes, want %d", cl.ID(), got, 3*fscache.BlockSize+100)
		}
		if got := c.Sim.Pending(); got != pending {
			t.Fatalf("client %d's tick left %d pending events, was %d", cl.ID(), got, pending)
		}
		if got, _ := c.Sim.NextAt(); got != next {
			t.Fatalf("client %d's tick moved the next event from %v to %v", cl.ID(), next, got)
		}
	}
	if c.Sim.Fired() != fired || c.Sim.Now() != now {
		t.Errorf("ticking ran the clock: fired %d -> %d, now %v -> %v", fired, c.Sim.Fired(), now, c.Sim.Now())
	}
	if st := c.Net.FaultStats(); st.DroppedOps == 0 || st.StalledOps == 0 {
		t.Errorf("the fault hook saw none of the writebacks: %+v", st)
	}
}

// flushTimes is a netsim.Hook recording when one client's writebacks
// reach the wire.
type flushTimes struct {
	c      *Cluster
	client int32
	at     []time.Duration
}

func (f *flushTimes) Outcome(_ int16, cl int32, class netsim.Class, _ int64) netsim.Outcome {
	if cl == f.client && class == netsim.FileWrite {
		f.at = append(f.at, f.c.Sim.Now())
	}
	return netsim.Outcome{}
}

// TestLateJoinerFlushesOnItsOwnGrid: a workstation brought up mid-run is
// a cohort of one whose daemon fires at joinTime + ID%5 s + k·5 s — not on
// the grid of the phase-ID%5 cohort armed at StartDaemons.
func TestLateJoinerFlushesOnItsOwnGrid(t *testing.T) {
	c := NewSystem(Config{NumServers: 1})
	for id := int32(0); id < 10; id++ {
		c.AddClient(id)
	}
	c.StartDaemons()
	const join = time.Minute + 2300*time.Millisecond
	c.Sim.RunUntil(join)
	cl := c.AddClient(13)
	rec := &flushTimes{c: c, client: 13}
	c.Net.SetHook(rec)
	dirty(t, cl, 100) // due at join+30 s: first grid instant join+3+5·6
	c.Sim.After(50*time.Second+100*time.Millisecond, func() {
		dirty(t, cl, 100) // due at join+80.1 s: first grid instant join+3+5·16
	})
	c.Sim.RunUntil(3 * time.Minute)
	c.Finish()
	want := []time.Duration{join + 33*time.Second, join + 83*time.Second}
	if len(rec.at) != len(want) {
		t.Fatalf("late joiner flushed at %v, want %v", rec.at, want)
	}
	for i, at := range rec.at {
		if at != want[i] {
			t.Errorf("flush %d at %v, want %v", i, at, want[i])
		}
	}
}

// TestCleanersAreOneTimerPerPhase counts the armed recurring timers:
// StartDaemons arms one cleaner per non-empty ID%5 phase however many
// workstations share it, a late joiner adds one of its own, and Finish
// disarms them all.
func TestCleanersAreOneTimerPerPhase(t *testing.T) {
	c := smallCommunity(t, "")
	before := c.Sim.WheelTimers()
	c.StartDaemons()
	n := len(c.Clients)
	if n <= int(cleanerPhases) {
		t.Fatalf("community of %d cannot tell a phase from a workstation", n)
	}
	// System processes (one per workstation), cleaner phases, server
	// cleaners and the sampler.
	want := before + n + int(cleanerPhases) + len(c.Servers) + 1
	if got := c.Sim.WheelTimers(); got != want {
		t.Errorf("%d timers armed after StartDaemons, want %d", got, want)
	}
	c.Sim.RunUntil(time.Minute + 700*time.Millisecond)
	c.AddClient(int32(n) + 3)
	if got := c.Sim.WheelTimers(); got != want+1 {
		t.Errorf("%d timers armed after a late join, want %d", got, want+1)
	}
	c.Finish()
	if got := c.Sim.WheelTimers(); got != before {
		t.Errorf("Finish left %d timers armed, want %d", got, before)
	}

	// A sparse community arms only the phases it has.
	s := NewSystem(Config{NumServers: 1})
	for _, id := range []int32{3, 8, 11} { // phases 3, 3, 1
		s.AddClient(id)
	}
	s.StartDaemons()
	if got, want := s.Sim.WheelTimers(), 2+len(s.Servers); got != want {
		t.Errorf("sparse community armed %d timers, want %d", got, want)
	}
}

// TestCrashedClientStillTicked: a workstation crashed by the fault
// injector stays in its cohort; what it dirtied before the crash is lost,
// what it dirties after is shipped by the same daemon.
func TestCrashedClientStillTicked(t *testing.T) {
	c := NewSystem(Config{NumServers: 1, Faults: mustParseFaults(t, "client-crash:2@1m")})
	for id := int32(0); id < 5; id++ {
		c.AddClient(id)
	}
	c.StartDaemons()
	cl := c.ClientByID(2)
	c.Sim.At(50*time.Second, func() { dirty(t, cl, 5000) })
	c.Sim.At(2*time.Minute, func() { dirty(t, cl, 8192) })
	c.Sim.RunUntil(3 * time.Minute)
	c.Finish()
	if got := cl.RecoveryStats().LostDirtyBytes; got != 5000 {
		t.Errorf("crash lost %d dirty bytes, want 5000", got)
	}
	if got := cl.BytesWrittenBack(); got != 8192 {
		t.Errorf("shipped %d bytes after recovery, want 8192", got)
	}
}

// TestIdleCohortTickZeroAlloc: a period of every phase's daemon walking
// workstations with nothing to write allocates nothing (`make
// allocscheck`).
func TestIdleCohortTickZeroAlloc(t *testing.T) {
	c := idleCluster(40)
	c.Sim.RunUntil(10 * time.Second)
	allocs := testing.AllocsPerRun(100, func() {
		c.Sim.RunUntil(c.Sim.Now() + fscache.CleanerPeriod)
	})
	if allocs != 0 {
		t.Errorf("an idle cleaner period allocated %.1f times, want 0", allocs)
	}
}
