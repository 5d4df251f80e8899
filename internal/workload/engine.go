package workload

import (
	"fmt"
	"time"

	"spritefs/internal/migrate"
	"spritefs/internal/sim"
)

// perOpCPU is the fixed kernel-call overhead added to every operation's
// latency (system-call and library time on a 10-MIPS workstation).
const perOpCPU = 2 * time.Millisecond

// execOverhead is process startup cost beyond paging.
const execOverhead = 60 * time.Millisecond

// userState is one member of the user community.
type userState struct {
	id       int32
	group    Group
	daily    bool
	home     int32
	sessHost int32 // workstation of the current session (usually home)
	migrates bool  // uses pmake migration
	bigSim   int   // >=0: index into Registry.BigInputs; -1 otherwise
	active   bool
	// stickyTarget is the user's last migration target; reusing it keeps
	// the target's cache warm — the locality effect behind migrated
	// processes' better-than-average hit ratios (Table 6).
	stickyTarget int32
	hasSticky    bool
}

// Stats summarizes a workload run.
type Stats struct {
	ProgramsRun int64
	Migrations  int64
	Evictions   int64
	AbortedOps  int64 // ops skipped after an error (e.g. open of a deleted file)
	SessionsRun int64
	// Per-application byte accounting (reads/writes issued), for
	// calibration and the workload-mix ablations.
	ReadByApp  [NumApps]int64
	WriteByApp [NumApps]int64
	RunsByApp  [NumApps]int64
}

// Engine drives the user community against the cluster's client hosts.
type Engine struct {
	sim  *sim.Sim
	rng  *sim.Rand
	p    Params
	reg  *Registry
	pool *migrate.Pool

	hosts []Host // indexed by workstation id
	users []*userState

	// OnMigrate, if set, is invoked when a process is placed on a remote
	// host (the cluster layer emits the KindMigrate trace record).
	OnMigrate func(user, pid, from, to int32)

	nextPid int32
	pidProg map[int32]*program
	// progFree recycles finished program objects (and their handle/file
	// slot arrays and step closures); the engine launches hundreds of
	// thousands of short programs per simulated hour, so per-launch
	// allocation is a hot path.
	progFree []*program
	// opsFree holds the op arrays of finished programs, emptied; newBuilder
	// hands them to the next programs generated, so a steady-state launch
	// grows no op array.
	opsFree [][]op
	// prevOutput maps (user, app) to the output file of the user's last
	// run of the app, deleted by the next run (opDeletePrev).
	prevOutput map[outKey]uint64
	stopAt     time.Duration
	st         Stats
}

type outKey struct {
	user int32
	app  AppKind
}

// NewEngine builds an engine over the given hosts, indexed by workstation
// id: hosts[i] is workstation i, for every i in [0, NumClients).
func NewEngine(s *sim.Sim, p Params, reg *Registry, hosts []Host) *Engine {
	if len(hosts) < p.NumClients {
		panic(fmt.Sprintf("workload: %d hosts for %d clients", len(hosts), p.NumClients))
	}
	for i, h := range hosts[:p.NumClients] {
		if h == nil {
			panic(fmt.Sprintf("workload: missing host %d", i))
		}
	}
	rng := sim.NewRand(p.Seed)
	e := &Engine{
		sim:        s,
		rng:        rng,
		p:          p,
		reg:        reg,
		pool:       migrate.NewPool(p.NumClients, p.MigrationReuseBias, rng.Fork()),
		hosts:      hosts,
		pidProg:    make(map[int32]*program),
		prevOutput: make(map[outKey]uint64),
		nextPid:    1000,
	}
	e.buildUsers()
	return e
}

// Stats returns a snapshot of the run counters.
func (e *Engine) Stats() Stats { return e.st }

func (e *Engine) buildUsers() {
	total := e.p.DailyUsers + e.p.OccasionalUsers
	bigAssigned := 0
	for i := 0; i < total; i++ {
		u := &userState{
			id:     int32(i),
			group:  Group(i % int(NumGroups)),
			daily:  i < e.p.DailyUsers,
			bigSim: -1,
		}
		if u.daily {
			// Daily users get dedicated workstations.
			u.home = int32(i % e.p.NumClients)
			u.migrates = e.rng.Bool(e.p.MigrationUserFrac)
		} else {
			// Occasional users share the remaining machines.
			base := e.p.DailyUsers
			span := e.p.NumClients - base
			if span <= 0 {
				span, base = e.p.NumClients, 0
			}
			u.home = int32(base + (i-e.p.DailyUsers)%span)
		}
		// The big-simulation users of traces 3-4 are daily VLSI-group
		// users running their class projects all day — through pmake, so
		// their runs migrate ("pmake is used ... also for simulations").
		if u.daily && bigAssigned < e.p.BigSimUsers && u.group == GroupVLSI {
			u.bigSim = bigAssigned
			u.migrates = true
			bigAssigned++
		}
		e.users = append(e.users, u)
	}
}

// Run schedules the whole community and returns immediately; the caller
// advances the simulator (sim.RunUntil) to execute the day. Activity stops
// at the given duration.
func (e *Engine) Run(duration time.Duration) {
	e.stopAt = duration
	for _, u := range e.users {
		u := u
		var first time.Duration
		if u.daily {
			// Staggered morning arrivals.
			first = e.rng.ExpDur(e.p.GapMedian / 2)
		} else {
			// Occasional users appear OccasionalSessionsPerDay times per
			// day on average, independent of run length — some never show
			// up in a 24-hour trace, as in the paper's user counts.
			first = e.rng.ExpDur(time.Duration(float64(24*time.Hour) / e.p.OccasionalSessionsPerDay))
		}
		if first < duration {
			e.sim.At(first, func() { e.startSession(u) })
		}
	}
}

func (e *Engine) startSession(u *userState) {
	if e.sim.Now() >= e.stopAt || u.active {
		return
	}
	u.active = true
	e.st.SessionsRun++
	// Some sessions happen away from the user's own workstation (a lab
	// machine, a colleague's office). The user's files then get written
	// from one client and read from another — the sequential write-
	// sharing behind the paper's recall rate and stale-data exposure.
	u.sessHost = u.home
	if e.rng.Bool(e.p.AwaySessionProb) && e.p.NumClients > 1 {
		for {
			h := int32(e.rng.Intn(e.p.NumClients))
			if h != u.home {
				u.sessHost = h
				break
			}
		}
	}
	evicted := e.pool.SetOwnerActive(u.sessHost, true)
	e.handleEvictions(evicted)
	dur := time.Duration(e.rng.LogNormal(float64(e.p.SessionMedian), e.p.SessionSigma))
	end := e.sim.Now() + dur
	if end > e.stopAt {
		end = e.stopAt
	}
	e.nextApp(u, end)
}

func (e *Engine) endSession(u *userState) {
	u.active = false
	e.pool.SetOwnerActive(u.sessHost, false)
	var gap time.Duration
	if u.daily {
		gap = time.Duration(e.rng.LogNormal(float64(e.p.GapMedian), e.p.GapSigma))
	} else {
		gap = e.rng.ExpDur(4 * e.p.GapMedian)
	}
	next := e.sim.Now() + gap
	if next < e.stopAt {
		e.sim.At(next, func() { e.startSession(u) })
	}
}

// nextApp picks and launches the user's next application run; when it
// completes, the loop continues after a think time until the session ends.
func (e *Engine) nextApp(u *userState, end time.Duration) {
	if e.sim.Now() >= end || e.sim.Now() >= e.stopAt {
		e.endSession(u)
		return
	}
	cont := func() {
		think := e.rng.ExpDur(e.p.ThinkMean)
		e.sim.After(think, func() { e.nextApp(u, end) })
	}
	if u.bigSim >= 0 {
		// Class-project users run their simulators back to back, farmed
		// out to idle hosts whenever one is available.
		ops, rate := e.genBigSim(u, e.reg.BigInputs[u.bigSim])
		host, migrated := e.hosts[u.home], false
		if target, ok := e.selectSticky(u); ok {
			host, migrated = e.hosts[target], true
		}
		e.launch(u, AppBigSim, host, ops, rate, migrated, cont)
		return
	}
	app := AppKind(e.rng.Pick(e.p.AppMix[u.group][:]))
	switch app {
	case AppPmake:
		if u.migrates {
			e.runPmake(u, cont)
			return
		}
		app = AppCompile
		fallthrough
	case AppCompile:
		var ops []op
		var rate float64
		if u.group == GroupOS && e.rng.Bool(0.08) {
			ops, rate = e.genKernelRead(u)
		} else {
			ops, rate = e.genCompile(u, e.rng.Bool(0.45))
		}
		e.launch(u, AppCompile, e.hosts[u.sessHost], ops, rate, false, cont)
	case AppEdit:
		ops, rate := e.genEdit(u)
		e.launch(u, AppEdit, e.hosts[u.sessHost], ops, rate, false, cont)
	case AppMail:
		ops, rate := e.genMail(u)
		e.launch(u, AppMail, e.hosts[u.sessHost], ops, rate, false, cont)
	case AppDoc:
		ops, rate := e.genDoc(u)
		e.launch(u, AppDoc, e.hosts[u.sessHost], ops, rate, false, cont)
	case AppSim:
		// Simulations are the other big migration customer ("pmake is
		// used for all compilations ... and also for simulations").
		ops, rate := e.genSim(u, e.p.SimOutputMB)
		host, migrated := e.hosts[u.sessHost], false
		if u.migrates {
			if target, ok := e.selectSticky(u); ok {
				host, migrated = e.hosts[target], true
			}
		}
		e.launch(u, AppSim, host, ops, rate, migrated, cont)
	case AppRandomDB:
		ops, rate := e.genRandomDB(u)
		e.launch(u, AppRandomDB, e.hosts[u.sessHost], ops, rate, false, cont)
	case AppDirList:
		ops, rate := e.genDirList(u)
		e.launch(u, AppDirList, e.hosts[u.sessHost], ops, rate, false, cont)
	case AppGrep:
		ops, rate := e.genGrep(u)
		e.launch(u, AppGrep, e.hosts[u.sessHost], ops, rate, false, cont)
	case AppSharedLog:
		e.runSharedLog(u, cont)
	case AppStream:
		ops, rate := e.genStream(u)
		e.launch(u, AppStream, e.hosts[u.sessHost], ops, rate, false, cont)
	case AppBuildFarm:
		e.runBuildFarm(u, cont)
	default:
		cont()
	}
}

// selectSticky picks a migration target, strongly preferring the user's
// previous target while it remains idle.
func (e *Engine) selectSticky(u *userState) (int32, bool) {
	if u.hasSticky && u.stickyTarget != u.sessHost && e.pool.IdleHosts() > 0 {
		if target := u.stickyTarget; e.isIdle(target) {
			return target, true
		}
	}
	target, ok := e.pool.Select(u.sessHost)
	if ok {
		u.stickyTarget, u.hasSticky = target, true
	}
	return target, ok
}

func (e *Engine) isIdle(host int32) bool {
	for _, uu := range e.users {
		if uu.active && uu.sessHost == host {
			return false
		}
	}
	return true
}

// runSharedLog appends to a group-shared file and, with probability
// SharedReadSoonP, has another group member read the file a few seconds
// later from their own workstation — the sequential write-sharing that
// drives server recalls (and would cause stale reads under weaker
// consistency).
func (e *Engine) runSharedLog(u *userState, cont func()) {
	file, ok := e.reg.RandomShared(e.rng, u.group)
	if !ok {
		cont()
		return
	}
	ops, rate := e.genSharedLogWrite(u, file)
	e.launch(u, AppSharedLog, e.hosts[u.sessHost], ops, rate, false, cont)
	nReaders := 0
	if e.rng.Bool(e.p.SharedReadSoonP) {
		nReaders = 1
	}
	for i := 0; i < nReaders; i++ {
		// Pick a different, currently present group member as the reader.
		var reader *userState
		for tries := 0; tries < 12; tries++ {
			cand := e.users[e.rng.Intn(len(e.users))]
			if cand.group == u.group && cand.id != u.id && cand.active {
				reader = cand
				break
			}
		}
		if reader == nil {
			continue
		}
		delay := e.rng.ExpDur(4 * time.Second)
		e.sim.After(delay, func() {
			if e.sim.Now() >= e.stopAt {
				return
			}
			rops, rrate := e.genSharedRead(reader, file)
			e.launch(reader, AppSharedLog, e.hosts[reader.sessHost], rops, rrate, false, func() {})
		})
	}
}

// runPmake farms compile targets out to idle workstations via process
// migration, then links at home when all targets finish.
func (e *Engine) runPmake(u *userState, cont func()) {
	targets := e.p.PmakeTargetsMin + e.rng.Intn(e.p.PmakeTargetsMax-e.p.PmakeTargetsMin+1)
	remaining := targets
	link := func() {
		ops, rate := e.genCompile(u, true)
		e.launch(u, AppPmake, e.hosts[u.sessHost], ops, rate, false, cont)
	}
	for i := 0; i < targets; i++ {
		host := e.hosts[u.sessHost]
		migrated := false
		// Most targets pile onto the user's usual (cache-warm) machine;
		// the rest spread for parallelism.
		var target int32
		var ok bool
		if e.rng.Bool(0.6) {
			target, ok = e.selectSticky(u)
		} else {
			target, ok = e.pool.Select(u.sessHost)
		}
		if ok {
			host = e.hosts[target]
			migrated = true
		}
		ops, rate := e.genCompile(u, false)
		done := func() {
			remaining--
			if remaining == 0 {
				link()
			}
		}
		e.launch(u, AppPmake, host, ops, rate, migrated, done)
	}
}

// launch starts a program on a host and registers it for migration
// bookkeeping. It returns the program so callers can read results
// (created-file slots) from their done callbacks; the first op always
// charges exec overhead, so done can never fire before launch returns.
// The program object is recycled after its done callback returns, so it
// must not be read after that point.
func (e *Engine) launch(u *userState, app AppKind, host Host, ops []op, rate float64, migrated bool, done func()) *program {
	e.nextPid++
	pr := e.takeProgram()
	pr.user = u.id
	pr.pid = e.nextPid
	pr.app = app
	pr.host = host
	pr.rate = rate
	pr.migrated = migrated
	pr.execFile, pr.codeP, pr.dataP, pr.stackP = 0, 0, 0, 0
	pr.ops = ops
	pr.idx = 0
	pr.handles = resizeZero(pr.handles, countSlots(ops))
	pr.files = resizeZero(pr.files, countFileSlots(ops))
	pr.aborted = false
	pr.done = done
	e.pidProg[pr.pid] = pr
	e.st.ProgramsRun++
	e.st.RunsByApp[app]++
	if migrated {
		e.pool.AddMigrant(host.ID(), pr.pid)
		e.st.Migrations++
		if e.OnMigrate != nil {
			e.OnMigrate(u.id, pr.pid, u.sessHost, host.ID())
		}
	}
	e.step(pr)
	return pr
}

// takeProgram pops a recycled program object or builds a fresh one. The
// per-program step closure is allocated exactly once per object and
// survives recycling.
func (e *Engine) takeProgram() *program {
	if n := len(e.progFree); n > 0 {
		pr := e.progFree[n-1]
		e.progFree = e.progFree[:n-1]
		return pr
	}
	pr := &program{}
	pr.stepFn = func() { e.step(pr) }
	return pr
}

// newBuilder returns a builder at the community's chunk size, appending
// into a recycled op array when a finished program has left one.
func (e *Engine) newBuilder() *progBuilder {
	b := newBuilder(e.p.ChunkBytes)
	if n := len(e.opsFree); n > 0 {
		b.ops = e.opsFree[n-1]
		e.opsFree = e.opsFree[:n-1]
	}
	return b
}

// resizeZero returns s resized to n zeroed entries, reusing its backing
// array when it is large enough.
func resizeZero(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

func countSlots(ops []op) int {
	n := 0
	for _, o := range ops {
		if o.kind == opOpen && o.slot >= n {
			n = o.slot + 1
		}
	}
	return n
}

func countFileSlots(ops []op) int {
	n := 0
	for _, o := range ops {
		if o.kind == opCreate && o.slot >= n {
			n = o.slot + 1
		}
	}
	return n
}

// resolve maps a fileRef to a concrete file id.
func (pr *program) resolve(f fileRef) uint64 {
	if f.slot >= 0 {
		return pr.files[f.slot]
	}
	return f.id
}

// step executes ops until one imposes a delay, then reschedules itself.
func (e *Engine) step(pr *program) {
	for pr.idx < len(pr.ops) {
		o := pr.ops[pr.idx]
		delay, repeat := e.doOp(pr, &o)
		if !repeat {
			pr.idx++
		}
		if delay > 0 {
			e.sim.After(delay, pr.stepFn)
			return
		}
	}
	e.finish(pr)
}

// doOp executes one op, returning its latency and whether the same op
// should run again (chunked read-to-EOF).
func (e *Engine) doOp(pr *program, o *op) (time.Duration, bool) {
	if pr.aborted && o.kind != opClose && o.kind != opExit {
		e.st.AbortedOps++
		return 0, false
	}
	h := pr.host
	xfer := func(n int64) time.Duration {
		if pr.rate <= 0 {
			return 0
		}
		return time.Duration(float64(n) / pr.rate * float64(time.Second))
	}
	switch o.kind {
	case opExec:
		pr.execFile = pr.resolve(o.file)
		pr.codeP, pr.dataP, pr.stackP = o.codeP, o.dataP, o.stackP
		h.ExecProcess(pr.pid, pr.execFile, o.codeP, o.dataP, o.stackP, pr.migrated)
		return execOverhead, false
	case opOpen:
		hd, lat, err := h.Open(pr.user, pr.pid, pr.resolve(o.file), o.read, o.write, pr.migrated)
		if err != nil {
			pr.aborted = true
			return perOpCPU, false
		}
		pr.handles[o.slot] = hd
		return lat + perOpCPU, false
	case opRead:
		hd := pr.handles[o.slot]
		if hd == 0 {
			return 0, false
		}
		n := o.bytes
		repeat := false
		if n == readToEOF {
			n = e.p.ChunkBytes
			repeat = true
		}
		got, lat := h.Read(hd, n)
		if got == 0 {
			return perOpCPU, false // EOF: stop repeating
		}
		e.st.ReadByApp[pr.app] += got
		if repeat && got < n {
			repeat = false
		}
		return lat + xfer(got) + perOpCPU, repeat
	case opWrite:
		hd := pr.handles[o.slot]
		if hd == 0 {
			return 0, false
		}
		lat := h.Write(hd, o.bytes)
		e.st.WriteByApp[pr.app] += o.bytes
		return lat + xfer(o.bytes) + perOpCPU, false
	case opSeek:
		hd := pr.handles[o.slot]
		if hd == 0 {
			return 0, false
		}
		pos := o.offset
		switch pos {
		case seekEnd:
			pos = e.sizeOfHandleFile(pr, o.slot)
		case seekRandom:
			if size := e.sizeOfHandleFile(pr, o.slot); size > 0 {
				pos = e.rng.Int63n(size)
			} else {
				pos = 0
			}
		}
		lat := h.Seek(hd, pos)
		return lat + perOpCPU, false
	case opFsync:
		hd := pr.handles[o.slot]
		if hd == 0 {
			return 0, false
		}
		return h.Fsync(hd) + perOpCPU, false
	case opClose:
		hd := pr.handles[o.slot]
		if hd == 0 {
			return 0, false
		}
		lat, _ := h.Close(hd)
		pr.handles[o.slot] = 0
		return lat + perOpCPU, false
	case opCreate:
		pr.files[o.slot] = h.Create(pr.user, pr.pid, o.dir, pr.migrated)
		return perOpCPU, false
	case opDelete:
		h.Delete(pr.user, pr.pid, pr.resolve(o.file), pr.migrated)
		return perOpCPU, false
	case opTruncate:
		h.Truncate(pr.user, pr.pid, pr.resolve(o.file), pr.migrated)
		return perOpCPU, false
	case opThink:
		h.TouchProcess(pr.pid, 0)
		return o.dur, false
	case opTouch:
		h.TouchProcess(pr.pid, o.grow)
		return 10 * time.Millisecond, false
	case opDeletePrev:
		k := outKey{pr.user, pr.app}
		if id := e.prevOutput[k]; id != 0 {
			h.Delete(pr.user, pr.pid, id, pr.migrated)
			delete(e.prevOutput, k)
		}
		return perOpCPU, false
	case opRegister:
		e.prevOutput[outKey{pr.user, pr.app}] = pr.files[o.slot]
		return 0, false
	case opExit:
		e.teardown(pr)
		return 0, false
	}
	return 0, false
}

// sizeOfHandleFile finds the file a handle slot refers to (scanning the
// program's ops) and asks the host for its size.
func (e *Engine) sizeOfHandleFile(pr *program, slot int) int64 {
	for _, o := range pr.ops {
		if o.kind == opOpen && o.slot == slot {
			return pr.host.FileSize(pr.resolve(o.file))
		}
	}
	return 0
}

// teardown closes any handles leaked by an abort and exits the process.
func (e *Engine) teardown(pr *program) {
	for i, hd := range pr.handles {
		if hd != 0 {
			pr.host.Close(hd)
			pr.handles[i] = 0
		}
	}
	pr.host.ExitProcess(pr.pid)
	if pr.migrated {
		e.pool.RemoveMigrant(pr.host.ID(), pr.pid)
	}
}

func (e *Engine) finish(pr *program) {
	delete(e.pidProg, pr.pid)
	done := pr.done
	pr.done = nil
	if done != nil {
		done()
	}
	// Recycle only after done has returned: done closures read created-file
	// slots (pr.files) and may launch follow-on programs, which must not
	// reuse this object while the callback can still see it.
	e.opsFree = append(e.opsFree, pr.ops[:0])
	pr.ops = nil
	pr.host = nil
	e.progFree = append(e.progFree, pr)
}

// handleEvictions relocates migrated processes whose host's owner
// returned: their dirty pages flush on the old host (the paging burst of
// Section 5.3) and the process re-executes on its owner's home machine.
func (e *Engine) handleEvictions(pids []int32) {
	for _, pid := range pids {
		pr := e.pidProg[pid]
		if pr == nil {
			continue
		}
		e.st.Evictions++
		old := pr.host
		// Open files do not survive the relocation in this model: close
		// them so the server's open state stays balanced.
		for i, hd := range pr.handles {
			if hd != 0 {
				old.Close(hd)
				pr.handles[i] = 0
			}
		}
		old.EvictMigrated(pid)
		old.ExitProcess(pid)
		home := e.hosts[e.users[pr.user].home]
		pr.host = home
		home.ExecProcess(pid, pr.execFile, pr.codeP, pr.dataP, pr.stackP, pr.migrated)
	}
}
