package workload

import (
	"testing"
	"time"

	"spritefs/internal/server"
	"spritefs/internal/sim"
)

// genRig builds an engine solely to exercise the program generators.
func genRig(t *testing.T, seed int64) (*Engine, *userState) {
	t.Helper()
	p := smallParams(seed)
	p.BigSimUsers = 1
	srv := server.New(0)
	s := sim.New(seed)
	hosts := make([]Host, p.NumClients)
	for i := 0; i < p.NumClients; i++ {
		hosts[i] = newFakeHost(int32(i), srv, s)
	}
	reg := Bootstrap(p, []*server.Server{srv}, sim.NewRand(seed+1))
	e := NewEngine(s, p, reg, hosts)
	return e, e.users[0]
}

// checkProgram validates the structural invariants every generated op
// program must satisfy.
func checkProgram(t *testing.T, name string, ops []op) {
	t.Helper()
	if len(ops) == 0 {
		t.Fatalf("%s: empty program", name)
	}
	if ops[0].kind != opExec {
		t.Errorf("%s: does not start with exec", name)
	}
	if ops[len(ops)-1].kind != opExit {
		t.Errorf("%s: does not end with exit", name)
	}
	open := map[int]bool{}
	created := map[int]bool{}
	for i, o := range ops {
		switch o.kind {
		case opOpen:
			if open[o.slot] {
				t.Errorf("%s: op %d reopens live handle slot %d", name, i, o.slot)
			}
			open[o.slot] = true
			if o.file.slot >= 0 && !created[o.file.slot] {
				t.Errorf("%s: op %d opens file slot %d before create", name, i, o.file.slot)
			}
		case opClose:
			if !open[o.slot] {
				t.Errorf("%s: op %d closes slot %d that is not open", name, i, o.slot)
			}
			open[o.slot] = false
		case opRead, opWrite, opSeek, opFsync:
			if !open[o.slot] {
				t.Errorf("%s: op %d (%d) on closed slot %d", name, i, o.kind, o.slot)
			}
			if o.kind == opRead && o.bytes == 0 {
				t.Errorf("%s: op %d zero-byte read", name, i)
			}
			if o.kind == opWrite && o.bytes <= 0 {
				t.Errorf("%s: op %d non-positive write", name, i)
			}
		case opCreate:
			created[o.slot] = true
		case opDelete, opTruncate:
			if o.file.slot >= 0 && !created[o.file.slot] {
				t.Errorf("%s: op %d deletes file slot %d before create", name, i, o.file.slot)
			}
		case opThink:
			if o.dur < 0 {
				t.Errorf("%s: op %d negative think", name, i)
			}
		}
	}
	for slot, isOpen := range open {
		if isOpen {
			t.Errorf("%s: handle slot %d left open at exit", name, slot)
		}
	}
}

func TestGeneratorsProduceWellFormedPrograms(t *testing.T) {
	e, u := genRig(t, 5)
	sharedFile, _ := e.reg.RandomShared(e.rng, u.group)
	gens := map[string]func() ([]op, float64){
		"edit":       func() ([]op, float64) { return e.genEdit(u) },
		"compile":    func() ([]op, float64) { return e.genCompile(u, true) },
		"compileNL":  func() ([]op, float64) { return e.genCompile(u, false) },
		"kernelread": func() ([]op, float64) { return e.genKernelRead(u) },
		"mail":       func() ([]op, float64) { return e.genMail(u) },
		"doc":        func() ([]op, float64) { return e.genDoc(u) },
		"sim":        func() ([]op, float64) { return e.genSim(u, 1) },
		"bigsim":     func() ([]op, float64) { return e.genBigSim(u, e.reg.BigInputs[0]) },
		"randomdb":   func() ([]op, float64) { return e.genRandomDB(u) },
		"dirlist":    func() ([]op, float64) { return e.genDirList(u) },
		"grep":       func() ([]op, float64) { return e.genGrep(u) },
		"sharedw":    func() ([]op, float64) { return e.genSharedLogWrite(u, sharedFile) },
		"sharedr":    func() ([]op, float64) { return e.genSharedRead(u, sharedFile) },
	}
	for name, gen := range gens {
		// Draw several programs per generator: sizes and branches vary.
		for rep := 0; rep < 25; rep++ {
			ops, rate := gen()
			if rate <= 0 {
				t.Fatalf("%s: non-positive rate", name)
			}
			checkProgram(t, name, ops)
		}
	}
}

func TestBuilderSlotAccounting(t *testing.T) {
	b := newBuilder(0)
	if b.chunk <= 0 {
		t.Fatal("default chunk not set")
	}
	f := b.create(false)
	h := b.open(slotFile(f), true, true)
	b.readSeq(h, 3*256*1024) // chunked into 3 reads
	b.write(h, 100)
	b.close(h)
	b.deleteFile(slotFile(f))
	ops := b.exit()
	if countSlots(ops) != 1 || countFileSlots(ops) != 1 {
		t.Errorf("slots: handles=%d files=%d", countSlots(ops), countFileSlots(ops))
	}
	reads := 0
	for _, o := range ops {
		if o.kind == opRead {
			reads++
		}
	}
	if reads != 3 {
		t.Errorf("readSeq produced %d reads, want 3", reads)
	}
}

func TestReadSeqChunking(t *testing.T) {
	b := newBuilder(1000)
	h := b.open(staticFile(1), true, false)
	b.readSeq(h, 2500)
	var sizes []int64
	for _, o := range b.ops {
		if o.kind == opRead {
			sizes = append(sizes, o.bytes)
		}
	}
	if len(sizes) != 3 || sizes[0] != 1000 || sizes[2] != 500 {
		t.Errorf("chunks = %v", sizes)
	}
}

func TestFileRefResolution(t *testing.T) {
	pr := &program{files: []uint64{0, 42}}
	if got := pr.resolve(staticFile(7)); got != 7 {
		t.Errorf("static resolve = %d", got)
	}
	if got := pr.resolve(slotFile(1)); got != 42 {
		t.Errorf("slot resolve = %d", got)
	}
}

func TestEngineHeavySharingStillBalanced(t *testing.T) {
	// Sanity at the engine level with a sharing-heavy mix and away
	// sessions: opens and closes must balance through aborts, evictions
	// and truncations.
	p := smallParams(21)
	p.AwaySessionProb = 0.5
	for g := Group(0); g < NumGroups; g++ {
		p.AppMix[g][AppSharedLog] = 50
	}
	srv := server.New(0)
	s := sim.New(p.Seed)
	hosts := make([]Host, p.NumClients)
	fakes := []*fakeHost{}
	for i := 0; i < p.NumClients; i++ {
		fh := newFakeHost(int32(i), srv, s)
		fakes = append(fakes, fh)
		hosts[i] = fh
	}
	reg := Bootstrap(p, []*server.Server{srv}, sim.NewRand(p.Seed+1))
	e := NewEngine(s, p, reg, hosts)
	e.Run(2 * time.Hour)
	s.RunUntil(3 * time.Hour)
	opens, closes := 0, 0
	for _, f := range fakes {
		opens += f.opens
		closes += f.closes
	}
	if opens == 0 || opens != closes {
		t.Errorf("opens=%d closes=%d", opens, closes)
	}
}

// TestOpArrayRecycledZeroAlloc: a steady-state launch allocates no op
// array. For every generator, the program it builds is finished (which
// hands its array back) and the same program generated again from the same
// random stream; the second must sit in the first one's array.
func TestOpArrayRecycledZeroAlloc(t *testing.T) {
	p := shrink(StreamingParams(5))
	p.BigSimUsers = 1
	r := newRig(t, p)
	e := r.eng
	u := e.users[0]
	shared, ok := e.reg.RandomShared(e.rng, u.group)
	if !ok {
		t.Fatal("no shared file to generate the shared-log programs against")
	}
	gens := map[string]func() []op{
		"edit":         func() []op { ops, _ := e.genEdit(u); return ops },
		"compile":      func() []op { ops, _ := e.genCompile(u, false); return ops },
		"compile+link": func() []op { ops, _ := e.genCompile(u, true); return ops },
		"kernel-read":  func() []op { ops, _ := e.genKernelRead(u); return ops },
		"mail":         func() []op { ops, _ := e.genMail(u); return ops },
		"doc":          func() []op { ops, _ := e.genDoc(u); return ops },
		"sim":          func() []op { ops, _ := e.genSim(u, e.p.SimOutputMB); return ops },
		"bigsim":       func() []op { ops, _ := e.genBigSim(u, e.reg.BigInputs[0]); return ops },
		"random-db":    func() []op { ops, _ := e.genRandomDB(u); return ops },
		"dirlist":      func() []op { ops, _ := e.genDirList(u); return ops },
		"grep":         func() []op { ops, _ := e.genGrep(u); return ops },
		"shared-write": func() []op { ops, _ := e.genSharedLogWrite(u, shared); return ops },
		"shared-read":  func() []op { ops, _ := e.genSharedRead(u, shared); return ops },
		"stream":       func() []op { ops, _ := e.genStream(u); return ops },
		"farm-build":   func() []op { ops, _, _ := e.genFarmBuild(u, e.reg.Media[:2]); return ops },
	}
	for name, gen := range gens {
		e.opsFree = nil
		e.rng = sim.NewRand(99)
		first := gen()
		pr := e.launch(u, AppEdit, r.hosts[0], first, 1e6, false, nil)
		r.s.Run()
		if len(e.opsFree) != 1 || pr.ops != nil {
			t.Fatalf("%s: finishing left %d arrays on the free list", name, len(e.opsFree))
		}
		e.rng = sim.NewRand(99)
		second := gen()
		if len(second) != len(first) {
			t.Fatalf("%s: regenerated %d ops, first time %d", name, len(second), len(first))
		}
		if &second[0] != &first[0] || cap(second) != cap(first) {
			t.Errorf("%s: a %d-op program did not reuse the %d-op array a finished one left", name, len(second), cap(first))
		}
		if len(e.opsFree) != 0 {
			t.Errorf("%s: %d arrays left on the free list after reuse", name, len(e.opsFree))
		}
	}
}

// TestOpArraysReturnWithTheirPrograms: over a community run every op array
// generated is launched and every one launched comes back, so at
// quiescence the two free lists are the same length.
func TestOpArraysReturnWithTheirPrograms(t *testing.T) {
	r := newRig(t, shrink(BuildFarmParams(8)))
	r.eng.Run(2 * time.Hour)
	r.s.RunUntil(3 * time.Hour)
	e := r.eng
	if e.st.ProgramsRun == 0 || len(e.pidProg) != 0 {
		t.Fatalf("%d programs run, %d still live", e.st.ProgramsRun, len(e.pidProg))
	}
	if len(e.opsFree) != len(e.progFree) {
		t.Errorf("%d op arrays on the free list beside %d programs", len(e.opsFree), len(e.progFree))
	}
	for i, ops := range e.opsFree {
		if len(ops) != 0 {
			t.Errorf("free array %d still holds %d ops", i, len(ops))
		}
	}
}
