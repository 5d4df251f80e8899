package workload

import (
	"slices"
	"testing"
	"time"
)

// buildHost is a fake host that also logs, for TestPmakeLinkConsumesObjects,
// which process created, opened for reading and deleted each file.
type buildHost struct {
	*fakeHost
	log *buildLog
}

// buildLog is the shared record of every buildHost in a rig.
type buildLog struct {
	r       *rig
	user    map[int32]int32         // pid → its user
	start   map[int32]time.Duration // pid → its first exec
	exit    map[int32]time.Duration // pid → its last exit
	files   []uint64                // created files, in creation order
	creator map[uint64]int32        // file → creating pid
	readers map[uint64][]int32      // file → pids that opened it for reading
	delBy   map[uint64]int32        // file → deleting pid
	delAt   map[uint64]time.Duration
}

func (h buildHost) Create(user, proc int32, dir, migrated bool) uint64 {
	id := h.fakeHost.Create(user, proc, dir, migrated)
	l := h.log
	l.user[proc] = user
	l.files = append(l.files, id)
	l.creator[id] = proc
	return id
}

func (h buildHost) Open(user, proc int32, file uint64, read, write, migrated bool) (uint64, time.Duration, error) {
	l := h.log
	l.user[proc] = user
	if read {
		l.readers[file] = append(l.readers[file], proc)
	}
	return h.fakeHost.Open(user, proc, file, read, write, migrated)
}

func (h buildHost) Delete(user, proc int32, file uint64, migrated bool) {
	if _, ok := h.log.delBy[file]; !ok {
		h.log.delBy[file] = proc
		h.log.delAt[file] = h.s.Now()
	}
	h.fakeHost.Delete(user, proc, file, migrated)
}

func (h buildHost) ExecProcess(pid int32, execFile uint64, c, d, st int, m bool) {
	if _, ok := h.log.start[pid]; !ok {
		h.log.start[pid] = h.s.Now()
	}
	h.fakeHost.ExecProcess(pid, execFile, c, d, st, m)
}

func (h buildHost) ExitProcess(pid int32) {
	h.log.exit[pid] = h.s.Now()
	h.fakeHost.ExitProcess(pid)
}

// newBuildRig is newRig over buildHosts.
func newBuildRig(t *testing.T, p Params) *buildLog {
	t.Helper()
	r := newRig(t, p)
	l := &buildLog{r: r,
		user: map[int32]int32{}, start: map[int32]time.Duration{}, exit: map[int32]time.Duration{},
		creator: map[uint64]int32{}, readers: map[uint64][]int32{},
		delBy: map[uint64]int32{}, delAt: map[uint64]time.Duration{}}
	for i, f := range r.fakes {
		r.hosts[i] = buildHost{f, l}
	}
	r.eng = NewEngine(r.s, p, r.eng.reg, r.hosts)
	return l
}

// pmakeRun is one pmake invocation: the targets, launched together, and
// the link launched after them.
type pmakeRun struct {
	targets []int32
	link    int32
}

// runs splits each user's programs, in pid (launch) order, into pmake
// runs: a block of programs started at one instant is a run's targets,
// and the program after the block is its link.
func (l *buildLog) runs(t *testing.T) []pmakeRun {
	var pids []int32
	for pid := range l.start { // order-free: sorted below
		pids = append(pids, pid)
	}
	slices.Sort(pids)
	byUser := map[int32][]int32{}
	var users []int32
	for _, pid := range pids {
		u := l.user[pid]
		if _, ok := byUser[u]; !ok {
			users = append(users, u)
		}
		byUser[u] = append(byUser[u], pid)
	}
	var runs []pmakeRun
	for _, u := range users {
		seq := byUser[u]
		for i := 0; i < len(seq); {
			j := i + 1
			for j < len(seq) && l.start[seq[j]] == l.start[seq[i]] {
				j++
			}
			if j-i < 2 || j == len(seq) {
				t.Fatalf("user %d: programs %v do not parse as pmake runs at %d", u, seq, i)
			}
			runs = append(runs, pmakeRun{targets: seq[i:j], link: seq[j]})
			i = j + 1
		}
	}
	return runs
}

// TestPmakeLinkConsumesObjects runs a pmake-only community in which every
// daily user migrates. Every file a build target creates and does not
// delete itself is an object for its run's link: the link, launched once
// the last target has exited, opens it for reading, and the file is
// deleted before the link exits.
func TestPmakeLinkConsumesObjects(t *testing.T) {
	p := smallParams(23)
	p.OccasionalUsers = 0
	p.MigrationUserFrac = 1
	for g := Group(0); g < NumGroups; g++ {
		p.AppMix[g] = [NumApps]float64{AppPmake: 1}
	}
	l := newBuildRig(t, p)
	l.r.eng.Run(time.Hour)
	l.r.s.RunUntil(3 * time.Hour)
	if n := l.r.s.Pending(); n != 0 {
		t.Fatalf("%d events pending after the drain", n)
	}

	runOf := map[int32]int{}
	runs := l.runs(t)
	for i, run := range runs {
		for _, pid := range run.targets {
			runOf[pid] = i
		}
		for _, pid := range run.targets {
			if l.exit[pid] > l.start[run.link] {
				t.Errorf("run %d: link %d started at %v, before target %d exited at %v",
					i, run.link, l.start[run.link], pid, l.exit[pid])
			}
		}
	}
	objects, bad := 0, 0
	fail := func(format string, args ...any) {
		if bad++; bad <= 5 {
			t.Errorf(format, args...)
		}
	}
	for _, f := range l.files {
		pid := l.creator[f]
		i, ok := runOf[pid]
		if !ok {
			continue // the link's own output
		}
		if by, ok := l.delBy[f]; ok && by == pid {
			continue // the target's own temporary
		}
		objects++
		link := runs[i].link
		if !slices.Contains(l.readers[f], link) {
			fail("file %d of target %d: never opened for reading by its link %d", f, pid, link)
		}
		if _, ok := l.delBy[f]; !ok {
			fail("file %d of target %d: never deleted", f, pid)
		} else if l.delAt[f] > l.exit[link] {
			fail("file %d of target %d: deleted at %v, after link %d exited at %v",
				f, pid, l.delAt[f], link, l.exit[link])
		}
	}
	if bad > 0 {
		t.Errorf("%d faults over %d objects of %d runs", bad, objects, len(runs))
	}
	if len(runs) < 10 || objects < 50 {
		t.Errorf("%d runs with %d objects: too few to judge", len(runs), objects)
	}
}
