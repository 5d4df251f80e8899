package workload

import (
	"slices"
	"testing"
	"time"

	"spritefs/internal/server"
	"spritefs/internal/sim"
)

// fakeHost implements Host against a real server (for file state) but
// without caches, VM or network — it verifies the engine's op sequencing
// in isolation.
type fakeHost struct {
	id      int32
	srv     *server.Server
	s       *sim.Sim
	opens   int
	closes  int
	reads   int
	writes  int
	seeks   int
	deletes int
	execs   int
	exits   int
	pos     map[uint64]int64
	file    map[uint64]uint64
	opened  map[uint64]int
	nextH   uint64
	// log, when set, receives the host's process and handle calls.
	log *[]hostCall
}

// hostCall is one process or handle call a fake host saw.
type hostCall struct {
	host   int32
	what   string // "open", "close", "exec", "exit" or "evict"
	pid    int32  // 0 for close
	handle uint64 // open and close only
}

func (f *fakeHost) record(what string, pid int32, handle uint64) {
	if f.log != nil {
		*f.log = append(*f.log, hostCall{f.id, what, pid, handle})
	}
}

func newFakeHost(id int32, srv *server.Server, s *sim.Sim) *fakeHost {
	return &fakeHost{id: id, srv: srv, s: s,
		pos: map[uint64]int64{}, file: map[uint64]uint64{}, opened: map[uint64]int{}}
}

func (f *fakeHost) ID() int32 { return f.id }

func (f *fakeHost) Create(user, proc int32, dir, migrated bool) uint64 {
	return f.srv.Create(dir, f.s.Now()).ID
}

func (f *fakeHost) Open(user, proc int32, file uint64, read, write, migrated bool) (uint64, time.Duration, error) {
	if _, err := f.srv.Open(file, f.id, write, f.s.Now()); err != nil {
		return 0, 0, err
	}
	f.opens++
	f.opened[file]++
	f.nextH++
	h := f.nextH
	f.pos[h] = 0
	f.file[h] = file
	f.record("open", proc, h)
	return h, time.Millisecond, nil
}

func (f *fakeHost) Read(h uint64, n int64) (int64, time.Duration) {
	file := f.file[h]
	if file == 0 {
		return 0, 0
	}
	size := f.FileSize(file)
	avail := size - f.pos[h]
	if n > avail {
		n = avail
	}
	if n <= 0 {
		return 0, 0
	}
	f.reads++
	f.pos[h] += n
	return n, time.Millisecond
}

func (f *fakeHost) Write(h uint64, n int64) time.Duration {
	file := f.file[h]
	if file == 0 {
		return 0
	}
	f.writes++
	f.srv.Grow(file, f.pos[h]+n, f.s.Now())
	f.pos[h] += n
	return time.Millisecond
}

func (f *fakeHost) Seek(h uint64, pos int64) time.Duration {
	f.seeks++
	f.pos[h] = pos
	return 0
}

func (f *fakeHost) Fsync(h uint64) time.Duration { return 0 }

func (f *fakeHost) Close(h uint64) (time.Duration, error) {
	if f.file[h] == 0 {
		return 0, nil
	}
	f.closes++
	f.record("close", 0, h)
	delete(f.file, h)
	delete(f.pos, h)
	return 0, nil
}

func (f *fakeHost) Delete(user, proc int32, file uint64, migrated bool) {
	f.deletes++
	f.srv.Delete(file, f.s.Now())
}

func (f *fakeHost) Truncate(user, proc int32, file uint64, migrated bool) {
	f.srv.Truncate(file, f.s.Now())
}

func (f *fakeHost) ExecProcess(pid int32, execFile uint64, c, d, st int, m bool) {
	f.execs++
	f.record("exec", pid, 0)
}
func (f *fakeHost) TouchProcess(pid int32, grow int) {}
func (f *fakeHost) ExitProcess(pid int32) {
	f.exits++
	f.record("exit", pid, 0)
}
func (f *fakeHost) EvictMigrated(pid int32) { f.record("evict", pid, 0) }

func (f *fakeHost) FileSize(file uint64) int64 {
	if fl := f.srv.Lookup(file); fl != nil {
		return fl.Size
	}
	return 0
}

func smallParams(seed int64) Params {
	p := Default(seed)
	p.NumClients = 6
	p.DailyUsers = 4
	p.OccasionalUsers = 2
	p.SessionMedian = 5 * time.Minute
	p.GapMedian = 10 * time.Minute
	p.ThinkMean = 3 * time.Second
	return p
}

type rig struct {
	s     *sim.Sim
	srv   *server.Server
	hosts []Host
	fakes []*fakeHost
	eng   *Engine
	calls []hostCall // every fake host's log, in call order
}

func newRig(t *testing.T, p Params) *rig {
	t.Helper()
	r := &rig{s: sim.New(p.Seed), srv: server.New(0), hosts: make([]Host, p.NumClients)}
	for i := 0; i < p.NumClients; i++ {
		fh := newFakeHost(int32(i), r.srv, r.s)
		fh.log = &r.calls
		r.fakes = append(r.fakes, fh)
		r.hosts[i] = fh
	}
	reg := Bootstrap(p, []*server.Server{r.srv}, sim.NewRand(p.Seed+1))
	r.eng = NewEngine(r.s, p, reg, r.hosts)
	return r
}

func (r *rig) totals() (opens, closes, execs, exits int) {
	for _, f := range r.fakes {
		opens += f.opens
		closes += f.closes
		execs += f.execs
		exits += f.exits
	}
	return
}

func TestEngineRunsCommunity(t *testing.T) {
	r := newRig(t, smallParams(7))
	r.eng.Run(2 * time.Hour)
	r.s.RunUntil(3 * time.Hour)

	st := r.eng.Stats()
	if st.ProgramsRun < 20 {
		t.Fatalf("only %d programs ran", st.ProgramsRun)
	}
	if st.SessionsRun < 4 {
		t.Errorf("sessions = %d", st.SessionsRun)
	}
	opens, closes, execs, exits := r.totals()
	if opens == 0 || opens != closes {
		t.Errorf("opens=%d closes=%d (must balance)", opens, closes)
	}
	if execs != exits {
		t.Errorf("execs=%d exits=%d (must balance)", execs, exits)
	}
	if r.s.Pending() != 0 {
		t.Errorf("%d events still pending after the horizon", r.s.Pending())
	}
}

func TestEngineDeterministic(t *testing.T) {
	run := func() Stats {
		r := newRig(t, smallParams(42))
		r.eng.Run(time.Hour)
		r.s.RunUntil(2 * time.Hour)
		return r.eng.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("runs differ:\n%+v\n%+v", a, b)
	}
}

func TestEngineMigrationHappens(t *testing.T) {
	p := smallParams(11)
	p.MigrationUserFrac = 1.0 // every daily user pmakes
	for g := Group(0); g < NumGroups; g++ {
		p.AppMix[g][AppPmake] = 100
	}
	r := newRig(t, p)
	r.eng.Run(2 * time.Hour)
	r.s.RunUntil(3 * time.Hour)
	if r.eng.Stats().Migrations == 0 {
		t.Error("no migrations with pmake-only mix")
	}
	// Migrated compile programs ran on non-home hosts.
	remoteExecs := 0
	for i := 4; i < 6; i++ { // hosts of occasional users: targets while idle
		remoteExecs += r.fakes[i].execs
	}
	if remoteExecs == 0 {
		t.Error("no executions on idle hosts")
	}
}

func TestEngineOnMigrateCallback(t *testing.T) {
	p := smallParams(13)
	p.MigrationUserFrac = 1.0
	for g := Group(0); g < NumGroups; g++ {
		p.AppMix[g][AppPmake] = 100
	}
	r := newRig(t, p)
	var calls int
	r.eng.OnMigrate = func(user, pid, from, to int32) {
		calls++
		if from == to {
			t.Errorf("migration from %d to itself", from)
		}
	}
	r.eng.Run(time.Hour)
	r.s.RunUntil(2 * time.Hour)
	if calls == 0 {
		t.Error("OnMigrate never called")
	}
	if int64(calls) != r.eng.Stats().Migrations {
		t.Errorf("callback calls %d != migrations %d", calls, r.eng.Stats().Migrations)
	}
}

// TestOwnerReturnEvictsMigrated pins eviction on owner return: the
// owner's session start evicts exactly the migrated programs still running
// on that workstation, in ascending pid order. Each closes its open handle
// there, is evicted and exits there, and re-executes under the same pid on
// its user's home; another workstation's migrant stays until its own
// owner returns.
func TestOwnerReturnEvictsMigrated(t *testing.T) {
	p := smallParams(17)
	p.AwaySessionProb = 0
	r := newRig(t, p)
	e := r.eng
	const h, other = 5, 4 // the workstations of occasional users 5 and 4
	if e.users[h].home != h || e.users[other].home != other {
		t.Fatalf("homes %d, %d", e.users[h].home, e.users[other].home)
	}
	e.stopAt = 2 * time.Hour
	file := e.reg.Small(0)[0]
	prog := func(think time.Duration) []op {
		b := e.newBuilder()
		b.exec(e.reg.Binaries[0], 1)
		b.open(staticFile(file), true, false)
		b.think(think)
		b.close(0)
		return b.exit()
	}
	// Four migrants onto h from users 0 and 1; the second finishes after a
	// second, leaving a gap in the middle of h's list.
	var pids []int32
	for i, think := range []time.Duration{time.Hour, time.Second, time.Hour, time.Hour} {
		pids = append(pids, e.launch(e.users[i%2], AppPmake, r.hosts[h], prog(think), 0, true, func() {}).pid)
	}
	otherPid := e.launch(e.users[2], AppPmake, r.hosts[other], prog(time.Hour), 0, true, func() {}).pid
	r.s.RunUntil(time.Minute)

	handle := map[int32]uint64{}
	for _, c := range r.calls {
		if c.what == "open" {
			handle[c.pid] = c.handle
		}
	}
	n := len(r.calls)
	e.startSession(e.users[h])
	var want []hostCall
	for _, i := range []int{0, 2, 3} {
		pid := pids[i]
		want = append(want,
			hostCall{h, "close", 0, handle[pid]},
			hostCall{h, "evict", pid, 0},
			hostCall{h, "exit", pid, 0},
			hostCall{e.users[i%2].home, "exec", pid, 0})
	}
	got := r.calls[n:]
	if len(got) < len(want) || !slices.Equal(got[:len(want)], want) {
		t.Fatalf("calls at owner return:\n got  %v\n want %v...", got, want)
	}
	for _, c := range got[len(want):] {
		if c.what == "evict" || c.what == "close" {
			t.Errorf("call after the evictions: %+v", c)
		}
	}
	if ev := e.Stats().Evictions; ev != 3 {
		t.Errorf("Evictions = %d, want 3", ev)
	}
	for _, i := range []int{0, 2, 3} {
		if r.fakes[h].file[handle[pids[i]]] != 0 {
			t.Errorf("pid %d's handle still open on %d", pids[i], h)
		}
	}

	// The other workstation's migrant went nowhere; its owner's return
	// evicts it alone.
	for _, c := range got {
		if c.pid == otherPid {
			t.Errorf("migrant on %d disturbed: %+v", other, c)
		}
	}
	n = len(r.calls)
	e.startSession(e.users[other])
	if ev := e.Stats().Evictions; ev != 4 {
		t.Errorf("Evictions = %d after %d's owner returned, want 4", ev, other)
	}
	if got := r.calls[n:]; len(got) < 4 || got[1] != (hostCall{other, "evict", otherPid, 0}) {
		t.Errorf("calls at %d's owner return: %v", other, got)
	}
}

func TestEngineStopsAtHorizon(t *testing.T) {
	r := newRig(t, smallParams(5))
	r.eng.Run(30 * time.Minute)
	r.s.RunUntil(24 * time.Hour)
	if r.s.Now() != 24*time.Hour {
		t.Errorf("clock = %v", r.s.Now())
	}
	// All activity drains shortly after the horizon; no unbounded tail.
	if r.s.Pending() != 0 {
		t.Errorf("pending events: %d", r.s.Pending())
	}
}

func TestTraceParamsVariants(t *testing.T) {
	for n := 1; n <= 8; n++ {
		p := TraceParams(n)
		if p.Seed == 0 {
			t.Errorf("trace %d: zero seed", n)
		}
		switch n {
		case 3, 4:
			if p.BigSimUsers != 2 || p.SimInputMB != 20 {
				t.Errorf("trace %d: big-sim users not configured", n)
			}
		case 7, 8:
			if p.AppMix[GroupOS][AppSharedLog] <= Default(1).AppMix[GroupOS][AppSharedLog] {
				t.Errorf("trace %d: sharing not elevated", n)
			}
		default:
			if p.BigSimUsers != 0 {
				t.Errorf("trace %d: unexpected big-sim users", n)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("TraceParams(0) did not panic")
		}
	}()
	TraceParams(0)
}

func TestBootstrapPopulation(t *testing.T) {
	p := smallParams(3)
	p.BigSimUsers = 1
	srv := server.New(0)
	reg := Bootstrap(p, []*server.Server{srv}, sim.NewRand(9))
	if len(reg.Binaries) == 0 || len(reg.KernelImages) == 0 {
		t.Fatal("no binaries")
	}
	users := p.DailyUsers + p.OccasionalUsers
	for u := int32(0); u < int32(users); u++ {
		if len(reg.Small(u)) == 0 || len(reg.Data(u)) == 0 {
			t.Errorf("user %d has no files", u)
		}
		if mb, ok := reg.Mailbox(u); !ok || mb == 0 || reg.Dir(u) == 0 {
			t.Errorf("user %d missing mailbox/dir", u)
		}
	}
	for g := Group(0); g < NumGroups; g++ {
		if len(reg.GroupShared[g]) == 0 || reg.GroupDirs[g] == 0 {
			t.Errorf("group %v missing shared files", g)
		}
	}
	if len(reg.BigInputs) != 1 || len(reg.BigInputs[0]) == 0 {
		t.Error("big-sim inputs missing")
	}
	// Kernel images are 2-10 MB.
	for _, id := range reg.KernelImages {
		size := srv.Lookup(id).Size
		if size < 2<<20 || size > 10<<20 {
			t.Errorf("kernel image size %d out of range", size)
		}
	}
	// Mailboxes and dirs must exist on the server.
	if srv.Lookup(reg.Dir(0)) == nil || !srv.Lookup(reg.Dir(0)).Directory {
		t.Error("user dir not a directory")
	}
}

func TestGroupAndAppNames(t *testing.T) {
	if GroupOS.String() != "os" || Group(99).String() != "group?" {
		t.Error("group names")
	}
	if AppPmake.String() != "pmake" || AppKind(99).String() != "app?" {
		t.Error("app names")
	}
}

func TestBSD1985Params(t *testing.T) {
	p := BSD1985(1)
	d := Default(1)
	if p.NumClients >= d.NumClients {
		t.Error("1985 cluster not smaller")
	}
	if p.EditRate >= d.EditRate || p.SimRate >= d.SimRate {
		t.Error("1985 processing not slower")
	}
	if p.BinMax >= d.BinMax || p.BigSimUsers != 0 {
		t.Error("1985 files not smaller")
	}
	if p.MigrationUserFrac != 0 || p.AppMix[GroupOS][AppPmake] != 0 {
		t.Error("1985 workload migrates")
	}
	// The 1985 community still runs.
	p.DailyUsers, p.OccasionalUsers = 4, 2
	srv := server.New(0)
	s := sim.New(1)
	hosts := make([]Host, p.NumClients)
	for i := 0; i < p.NumClients; i++ {
		hosts[i] = newFakeHost(int32(i), srv, s)
	}
	reg := Bootstrap(p, []*server.Server{srv}, sim.NewRand(2))
	e := NewEngine(s, p, reg, hosts)
	e.Run(time.Hour)
	s.RunUntil(2 * time.Hour)
	if e.Stats().ProgramsRun == 0 {
		t.Error("1985 community ran nothing")
	}
	if e.Stats().Migrations != 0 {
		t.Error("1985 community migrated processes")
	}
}
