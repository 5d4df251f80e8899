package workload

import (
	"fmt"
	"hash/fnv"
	"io"
	"testing"
	"time"
)

// TestMigrationPlacementPinned pins every placement of a 6 h run in which
// each workstation has at most one user, so that no two sessions ever
// overlap on one: a hash of every OnMigrate call and of the final Stats
// (writeStats).
// Idleness bookkeeping that counts sessions and bookkeeping that flags
// them agree on such a run, so this hash must not move with them.
func TestMigrationPlacementPinned(t *testing.T) {
	p := Default(3)
	p.OccasionalUsers = 0
	p.AwaySessionProb = 0
	r := newRig(t, p)
	h := fnv.New64a()
	r.eng.OnMigrate = func(user, pid, from, to int32) {
		fmt.Fprintf(h, "%d %d %d %d\n", user, pid, from, to)
	}
	r.eng.Run(6 * time.Hour)
	r.s.RunUntil(7 * time.Hour)
	st := r.eng.Stats()
	writeStats(h, st)
	const want = 0xd67c991feeafb644
	if got := h.Sum64(); got != want || st.Migrations < 100 {
		t.Errorf("placement hash %#x over %d migrations, want %#x over at least 100", got, st.Migrations, uint64(want))
	}
}

// writeStats writes st's scalar counters and, for each application that
// ran, its name and counts, so that the digest moves with what ran and not
// with the list of applications that did not.
func writeStats(w io.Writer, st Stats) {
	fmt.Fprintf(w, "programs=%d migrations=%d evictions=%d aborted=%d sessions=%d\n",
		st.ProgramsRun, st.Migrations, st.Evictions, st.AbortedOps, st.SessionsRun)
	for a := AppKind(0); a < NumApps; a++ {
		if st.RunsByApp[a] != 0 {
			fmt.Fprintf(w, "%s=%d read=%d write=%d\n", a, st.RunsByApp[a], st.ReadByApp[a], st.WriteByApp[a])
		}
	}
}

// TestNoMigrantBesideActiveSession runs a day whose away sessions often
// land on a workstation where another session is running. No migrated
// process may be placed on a workstation with a session running, and each
// workstation's session count must equal the number of active users whose
// session is there. A scan over the users is the reference for both.
func TestNoMigrantBesideActiveSession(t *testing.T) {
	p := Default(1)
	p.AwaySessionProb = 0.5
	r := newRig(t, p)
	e := r.eng
	overlaps := 0
	check := func() []int32 {
		want := make([]int32, p.NumClients)
		for _, u := range e.users {
			if u.active {
				want[u.sessHost]++
			}
		}
		for h, n := range want {
			if n > 1 {
				overlaps++
			}
			if e.sessions[h] != n {
				t.Fatalf("at %v workstation %d counts %d sessions, %d running", r.s.Now(), h, e.sessions[h], n)
			}
		}
		return want
	}
	e.OnMigrate = func(user, pid, from, to int32) {
		if n := check()[to]; n > 0 {
			t.Fatalf("at %v user %d's pid %d migrated to %d, where %d sessions are running", r.s.Now(), user, pid, to, n)
		}
	}
	const day = 24 * time.Hour
	var tick func()
	tick = func() {
		check()
		if r.s.Now() < day {
			r.s.After(time.Minute, tick)
		}
	}
	r.s.At(0, tick)
	e.Run(day)
	r.s.RunUntil(day + time.Hour)
	if overlaps == 0 {
		t.Error("no two sessions overlapped on a workstation")
	}
	if e.Stats().Migrations == 0 {
		t.Error("no process migrated")
	}
}

// selectRig returns an engine over n workstations with no session running,
// whose selection reuses its last pick with probability bias.
func selectRig(t *testing.T, seed int64, n int, bias float64) *Engine {
	t.Helper()
	p := smallParams(seed)
	p.NumClients = n
	p.MigrationReuseBias = bias
	return newRig(t, p).eng
}

// occupy starts a session on workstation h, as far as selection sees.
func occupy(e *Engine, h int32) { e.sessions[h]++ }

func TestNewEngineRejectsReuseBias(t *testing.T) {
	for _, bias := range []float64{-0.1, 1.1} {
		func() {
			defer func() {
				if r := recover(); r != fmt.Sprintf("workload: reuse bias %g out of range", bias) {
					t.Errorf("bias %g: panic %v", bias, r)
				}
			}()
			selectRig(t, 1, 3, bias)
		}()
	}
}

func TestSelectNeverPicksRequesterOrActiveHost(t *testing.T) {
	e := selectRig(t, 1, 4, 0.5)
	occupy(e, 1)
	occupy(e, 2)
	for i := 0; i < 100; i++ {
		h, ok := e.selectHost(0)
		if !ok {
			t.Fatal("no host found")
		}
		if h == 0 || h == 1 || h == 2 {
			t.Fatalf("selected %d (requester or active)", h)
		}
	}
}

func TestSelectNoIdleHosts(t *testing.T) {
	e := selectRig(t, 1, 2, 0.5)
	occupy(e, 1)
	if _, ok := e.selectHost(0); ok {
		t.Error("selected a host with none idle")
	}
}

func TestReuseBias(t *testing.T) {
	// With bias 1.0, once a host is picked it is always re-picked while
	// idle — the locality that boosts migrated processes' hit ratios.
	e := selectRig(t, 7, 10, 1.0)
	first, ok := e.selectHost(0)
	if !ok {
		t.Fatal("no pick")
	}
	for i := 0; i < 50; i++ {
		h, _ := e.selectHost(0)
		if h != first {
			t.Fatalf("bias 1.0 switched host: %d -> %d", first, h)
		}
	}
	// When the favourite goes busy, selection moves on.
	occupy(e, first)
	h, ok := e.selectHost(0)
	if !ok || h == first {
		t.Errorf("picked busy favourite %d", h)
	}
}

func TestZeroBiasSpreadsLoad(t *testing.T) {
	e := selectRig(t, 3, 8, 0)
	seen := map[int32]bool{}
	for i := 0; i < 300; i++ {
		h, _ := e.selectHost(0)
		seen[h] = true
	}
	if len(seen) != 7 {
		t.Errorf("zero bias used %d of the 7 other hosts", len(seen))
	}
}

func TestDeterministicSelection(t *testing.T) {
	run := func() []int32 {
		e := selectRig(t, 42, 6, 0.6)
		var picks []int32
		for i := 0; i < 40; i++ {
			h, _ := e.selectHost(0)
			picks = append(picks, h)
		}
		return picks
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("selection not deterministic")
		}
	}
}

// TestSelectZeroAlloc: a warm selectHost over 64 workstations, on both
// the reuse and the uniform path, allocates nothing.
func TestSelectZeroAlloc(t *testing.T) {
	e := selectRig(t, 1, 64, 0.5)
	for h := int32(0); h < 64; h += 3 {
		occupy(e, h)
	}
	requester := int32(0)
	allocs := testing.AllocsPerRun(1000, func() {
		if _, ok := e.selectHost(requester); !ok {
			t.Fatal("no idle host")
		}
		requester = (requester + 1) % 64
	})
	if allocs != 0 {
		t.Fatalf("selectHost allocated %.1f/op, want 0", allocs)
	}
}
