package vm

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// referenceSystem is the map-based VM system kept as an oracle: a process
// table and a retained-code pool keyed by pid and exec id, every victim
// found by a scan, every page dropped one at a time. FuzzVM drives it and
// System in lockstep; the two must agree on every counter, every share of
// memory and every paging call.
type referenceSystem struct {
	mem *Memory
	io  IO

	procs    map[int32]*refProc
	retained map[uint64]*refRetained
	retPages int

	st Stats
}

type refProc struct {
	pid      int32
	execFile uint64
	pages    [NumPageClasses]int
	pagedOut int
	lastRef  time.Duration
	migrated bool
}

func (p *refProc) resident() int {
	n := 0
	for _, c := range p.pages {
		n += c
	}
	return n
}

type refRetained struct {
	pages   int
	lastUse time.Duration
}

func newReferenceSystem(mem *Memory, io IO) *referenceSystem {
	return &referenceSystem{mem: mem, io: io, procs: map[int32]*refProc{}, retained: map[uint64]*refRetained{}}
}

func (s *referenceSystem) Stats() Stats { return s.st }

func (s *referenceSystem) ResidentPages() int {
	n := s.retPages
	for _, p := range s.procs {
		n += p.resident()
	}
	return n
}

func (s *referenceSystem) acquire(pid int32, n int, now time.Duration) {
	for granted := 0; granted < n; {
		g, _ := s.mem.AcquireVM(n - granted)
		if g == 0 {
			if !s.evictOne(pid, now) {
				return
			}
			continue
		}
		granted += g
	}
}

func (s *referenceSystem) Start(pid int32, execFile uint64, codePages, dataPages, stackPages int, migrated bool, now time.Duration) {
	if _, dup := s.procs[pid]; dup {
		panic(fmt.Sprintf("vm: duplicate pid %d", pid))
	}
	p := &refProc{pid: pid, execFile: execFile, migrated: migrated, lastRef: now}
	s.procs[pid] = p
	reuse := 0
	if r := s.retained[execFile]; r != nil {
		reuse = min(r.pages, codePages)
		s.retPages -= reuse
		r.pages -= reuse
		if r.pages == 0 {
			delete(s.retained, execFile)
		}
		s.st.CodeReuse += int64(reuse)
	}
	faultCode := codePages - reuse
	s.acquire(pid, faultCode, now)
	p.pages[PageCode] = codePages
	if faultCode > 0 {
		bytes := int64(faultCode) * PageSize
		s.io.CodeIn(execFile, 0, bytes, migrated)
		s.st.BytesIn[PageCode] += bytes
	}
	s.acquire(pid, dataPages, now)
	p.pages[PageInitData] = dataPages
	if dataPages > 0 {
		bytes := int64(dataPages) * PageSize
		s.io.DataIn(execFile, int64(codePages)*PageSize, bytes, migrated)
		s.st.BytesIn[PageInitData] += bytes
	}
	s.acquire(pid, stackPages, now)
	p.pages[PageStack] = stackPages
}

func (s *referenceSystem) evictOne(exceptPid int32, now time.Duration) bool {
	if s.dropOneRetained(func(*refRetained) bool { return true }) {
		s.mem.ReleaseVM(1)
		s.st.Evictions++
		return true
	}
	var victim *refProc
	for _, p := range s.procs {
		if p.pid != exceptPid && refColder(p, victim) {
			victim = p
		}
	}
	if victim == nil || !s.stealPage(victim) {
		return false
	}
	s.mem.ReleaseVM(1)
	s.st.Evictions++
	return true
}

func refColder(p, v *refProc) bool {
	return v == nil || p.lastRef < v.lastRef || p.lastRef == v.lastRef && p.pid < v.pid
}

func (s *referenceSystem) dropOneRetained(ok func(*refRetained) bool) bool {
	var oldestExec uint64
	var oldest *refRetained
	for f, r := range s.retained {
		if !ok(r) {
			continue
		}
		if oldest == nil || r.lastUse < oldest.lastUse || r.lastUse == oldest.lastUse && f < oldestExec {
			oldest, oldestExec = r, f
		}
	}
	if oldest == nil {
		return false
	}
	oldest.pages--
	s.retPages--
	if oldest.pages == 0 {
		delete(s.retained, oldestExec)
	}
	return true
}

func (s *referenceSystem) stealPage(victim *refProc) bool {
	switch {
	case victim.pages[PageCode] > 0:
		victim.pages[PageCode]--
	case victim.pages[PageInitData] > 0:
		victim.pages[PageInitData]--
	case victim.pages[PageHeap] > 0:
		victim.pages[PageHeap]--
		victim.pagedOut++
		s.io.BackingOut(PageSize, victim.migrated)
		s.st.BytesOut[PageHeap] += PageSize
	case victim.pages[PageStack] > 0:
		victim.pages[PageStack]--
		victim.pagedOut++
		s.io.BackingOut(PageSize, victim.migrated)
		s.st.BytesOut[PageStack] += PageSize
	default:
		return false
	}
	return true
}

func (s *referenceSystem) Touch(pid int32, growHeap int, now time.Duration) {
	p := s.procs[pid]
	if p == nil {
		return
	}
	p.lastRef = now
	if p.pagedOut > 0 {
		n := p.pagedOut
		p.pagedOut = 0
		s.acquire(pid, n, now)
		p.pages[PageHeap] += n
		bytes := int64(n) * PageSize
		s.io.BackingIn(bytes, p.migrated)
		s.st.BytesIn[PageHeap] += bytes
		s.st.Refaults += int64(n)
	}
	if growHeap > 0 {
		s.acquire(pid, growHeap, now)
		p.pages[PageHeap] += growHeap
	}
}

func (s *referenceSystem) PageOut(pid int32, n int, now time.Duration) int {
	p := s.procs[pid]
	if p == nil || n <= 0 {
		return 0
	}
	n = min(n, p.pages[PageHeap])
	if n == 0 {
		return 0
	}
	p.pages[PageHeap] -= n
	p.pagedOut += n
	bytes := int64(n) * PageSize
	s.io.BackingOut(bytes, p.migrated)
	s.st.BytesOut[PageHeap] += bytes
	s.st.Evictions += int64(n)
	s.mem.ReleaseVM(n)
	return n
}

func (s *referenceSystem) Free(pid int32, n int, now time.Duration) int {
	p := s.procs[pid]
	if p == nil || n <= 0 {
		return 0
	}
	n = min(n, p.pages[PageHeap])
	p.pages[PageHeap] -= n
	p.lastRef = now
	s.mem.ReleaseVM(n)
	return n
}

func (s *referenceSystem) Exit(pid int32, now time.Duration) {
	p := s.procs[pid]
	if p == nil {
		return
	}
	delete(s.procs, pid)
	code := p.pages[PageCode]
	if code > 0 {
		r := s.retained[p.execFile]
		if r == nil {
			r = &refRetained{}
			s.retained[p.execFile] = r
		}
		r.pages += code
		r.lastUse = now
		s.retPages += code
	}
	s.mem.ReleaseVM(p.resident() - code)
}

func (s *referenceSystem) EvictProcess(pid int32, now time.Duration) {
	p := s.procs[pid]
	if p == nil {
		return
	}
	dirty := p.pages[PageHeap] + p.pages[PageStack]
	if dirty > 0 {
		bytes := int64(dirty) * PageSize
		s.io.BackingOut(bytes, p.migrated)
		s.st.BytesOut[PageHeap] += bytes
		s.st.Evictions += int64(dirty)
	}
	total := p.resident()
	p.pages = [NumPageClasses]int{}
	p.pagedOut += dirty
	s.mem.ReleaseVM(total)
}

func (s *referenceSystem) IdlePages(now time.Duration) int {
	n := 0
	for _, r := range s.retained {
		if now-r.lastUse >= IdleThreshold {
			n += r.pages
		}
	}
	for _, p := range s.procs {
		if now-p.lastRef >= IdleThreshold {
			n += p.resident()
		}
	}
	return n
}

func (s *referenceSystem) DropIdle(n int, now time.Duration) int {
	dropped := 0
	for dropped < n {
		if s.dropOneRetained(func(r *refRetained) bool { return now-r.lastUse >= IdleThreshold }) {
			dropped++
			continue
		}
		var victim *refProc
		for _, p := range s.procs {
			if now-p.lastRef >= IdleThreshold && refColder(p, victim) {
				victim = p
			}
		}
		if victim == nil || !s.stealPage(victim) {
			break
		}
		dropped++
	}
	return dropped
}

// ioCall is one paging call as IO received it.
type ioCall struct {
	op            string
	execFile      uint64
	offset, bytes int64
	migrated      bool
}

// ioRecorder is an IO that records every call, in order.
type ioRecorder struct{ calls []ioCall }

func (r *ioRecorder) CodeIn(f uint64, off, b int64, m bool) {
	r.calls = append(r.calls, ioCall{"CodeIn", f, off, b, m})
}
func (r *ioRecorder) DataIn(f uint64, off, b int64, m bool) {
	r.calls = append(r.calls, ioCall{"DataIn", f, off, b, m})
}
func (r *ioRecorder) BackingIn(b int64, m bool) {
	r.calls = append(r.calls, ioCall{"BackingIn", 0, 0, b, m})
}
func (r *ioRecorder) BackingOut(b int64, m bool) {
	r.calls = append(r.calls, ioCall{"BackingOut", 0, 0, b, m})
}

// vmLockstep runs System and referenceSystem side by side over one byte
// string, each on its own Memory and recorder.
type vmLockstep struct {
	in  []byte
	pos int
	now time.Duration

	sys            *System
	ref            *referenceSystem
	sysMem, refMem *Memory
	sysIO, refIO   ioRecorder
	live           [vmPids]bool
	step           int
	failed         bool
	diff           string
}

// vmPids bounds the pid space, so steps name live processes often and the
// retained pool sees the same few images come and go.
const vmPids = 16

func (d *vmLockstep) byte() byte {
	if d.pos >= len(d.in) {
		return 0
	}
	b := d.in[d.pos]
	d.pos++
	return b
}

func (d *vmLockstep) failf(format string, args ...any) {
	if !d.failed {
		d.failed = true
		d.diff = fmt.Sprintf("step %d (t=%v): ", d.step, d.now) + fmt.Sprintf(format, args...)
	}
}

// same compares everything either system exposes, plus the paging calls
// made since the last step.
func (d *vmLockstep) same(op string) {
	if g, w := d.sys.Stats(), d.ref.Stats(); g != w {
		d.failf("%s: stats %+v, reference %+v", op, g, w)
	}
	if g, w := d.sys.ResidentPages(), d.ref.ResidentPages(); g != w {
		d.failf("%s: resident %d, reference %d", op, g, w)
	}
	if g, w := d.sys.IdlePages(d.now), d.ref.IdlePages(d.now); g != w {
		d.failf("%s: idle %d, reference %d", op, g, w)
	}
	if g, w := *d.sysMem, *d.refMem; g != w {
		d.failf("%s: memory %+v, reference %+v", op, g, w)
	}
	if !slices.Equal(d.sysIO.calls, d.refIO.calls) {
		d.failf("%s: paging calls %v, reference %v", op, d.sysIO.calls, d.refIO.calls)
	}
	d.sysIO.calls, d.refIO.calls = d.sysIO.calls[:0], d.refIO.calls[:0]
}

// run decodes the byte string. The first byte sizes memory, from a few
// pages (every exec overcommits) to a few hundred; each later step is one
// op byte and its operands.
func (d *vmLockstep) run() {
	total := 8 + int(d.byte())
	fsMin := 1 + int(d.byte()%8)
	fsInit := min(total, fsMin+int(d.byte()%16))
	d.sysMem, d.refMem = NewMemory(total, fsInit, fsMin), NewMemory(total, fsInit, fsMin)
	d.sys, d.ref = NewSystem(d.sysMem, &d.sysIO), newReferenceSystem(d.refMem, &d.refIO)
	for d.pos < len(d.in) && !d.failed {
		d.step++
		op := d.byte()
		pid := int32(d.byte()%vmPids) + 1
		n := int(d.byte() % 32)
		switch op % 10 {
		case 0, 1: // exec, on the first free pid at or after pid
			for i := range vmPids {
				p := (pid-1+int32(i))%vmPids + 1
				if !d.live[p-1] {
					exec := uint64(d.byte()%5) + 1
					code, data, stack := n, int(d.byte()%8), int(d.byte()%4)
					mig := d.byte()&1 == 1
					d.sys.Start(p, exec, code, data, stack, mig, d.now)
					d.ref.Start(p, exec, code, data, stack, mig, d.now)
					d.live[p-1] = true
					break
				}
			}
			d.same("Start")
		case 2:
			d.sys.Touch(pid, n, d.now)
			d.ref.Touch(pid, n, d.now)
			d.same("Touch")
		case 3:
			if g, w := d.sys.PageOut(pid, n, d.now), d.ref.PageOut(pid, n, d.now); g != w {
				d.failf("PageOut(%d, %d) = %d, reference %d", pid, n, g, w)
			}
			d.same("PageOut")
		case 4:
			if g, w := d.sys.Free(pid, n, d.now), d.ref.Free(pid, n, d.now); g != w {
				d.failf("Free(%d, %d) = %d, reference %d", pid, n, g, w)
			}
			d.same("Free")
		case 5:
			d.sys.Exit(pid, d.now)
			d.ref.Exit(pid, d.now)
			d.live[pid-1] = false
			d.same("Exit")
		case 6:
			d.sys.EvictProcess(pid, d.now)
			d.ref.EvictProcess(pid, d.now)
			d.same("EvictProcess")
		case 7: // the file cache claims idle pages, as the client's maybeGrow does
			_, fromVM := d.sysMem.AcquireFS(n, d.sys.IdlePages(d.now))
			_, refFromVM := d.refMem.AcquireFS(n, d.ref.IdlePages(d.now))
			if fromVM != refFromVM {
				d.failf("AcquireFS took %d idle pages, reference %d", fromVM, refFromVM)
			}
			if g, w := d.sys.DropIdle(fromVM, d.now), d.ref.DropIdle(fromVM, d.now); g != w {
				d.failf("DropIdle(%d) = %d, reference %d", fromVM, g, w)
			}
			d.same("DropIdle")
		case 8: // the clock: a step of up to 31 s, or of 5..36 min
			d.now += time.Duration(n) * time.Second
			if pid > vmPids/2 {
				d.now += time.Duration(n+5) * time.Minute
			}
			d.same("clock")
		case 9: // the VM squeezes the file cache, as an exec under pressure does
			d.sysMem.AcquireVM(n)
			d.refMem.AcquireVM(n)
			d.same("AcquireVM")
		}
	}
}

func diffVM(in []byte) *vmLockstep {
	d := &vmLockstep{in: in}
	d.run()
	return d
}

// seededVMOps returns a random op stream of about 600 steps.
func seededVMOps(seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	in := make([]byte, 3+600*6)
	rng.Read(in)
	return in
}

func TestVMMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		if d := diffVM(seededVMOps(seed)); d.failed {
			t.Fatalf("seed %d: %s", seed, d.diff)
		}
	}
}

func FuzzVM(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seededVMOps(seed))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if d := diffVM(in); d.failed {
			t.Fatal(d.diff)
		}
	})
}
