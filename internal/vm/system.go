package vm

import (
	"fmt"
	"time"
)

// PageClass is one of the paper's four page groups.
type PageClass uint8

// Page classes. Code and initialized ("unmodified") data pages are paged
// from the executable file through the file cache; modified data and stack
// pages are paged to and from backing files, bypassing the client cache.
const (
	PageCode PageClass = iota
	PageInitData
	PageHeap
	PageStack
	NumPageClasses
)

var pageClassNames = [NumPageClasses]string{"code", "init-data", "heap", "stack"}

// String returns the class name.
func (c PageClass) String() string {
	if c < NumPageClasses {
		return pageClassNames[c]
	}
	return fmt.Sprintf("pageclass(%d)", uint8(c))
}

// IO is how the VM system performs paging I/O. CodeIn and DataIn go
// through the client file cache (and so may hit there); BackingIn and
// BackingOut go straight to the server. The migrated flag attributes
// traffic to migrated processes for Table 6. The client implements it
// itself, so a workstation's VM costs one interface value, not a closure
// per operation.
type IO interface {
	CodeIn(execFile uint64, offset, bytes int64, migrated bool)
	DataIn(execFile uint64, offset, bytes int64, migrated bool)
	BackingIn(bytes int64, migrated bool)
	BackingOut(bytes int64, migrated bool)
}

// Stats counts paging activity by class and direction, feeding the paging
// rows of Tables 5 and 7 and the Section 5.3 traffic split.
type Stats struct {
	BytesIn   [NumPageClasses]int64
	BytesOut  [NumPageClasses]int64
	Evictions int64 // pages evicted under memory pressure
	Refaults  int64 // backing pages faulted back in
	CodeReuse int64 // code pages reused from the retained pool (no I/O)
}

type proc struct {
	pid      int32
	execFile uint64
	pages    [NumPageClasses]int // resident pages by class
	pagedOut int                 // heap/stack pages currently on backing store
	lastRef  time.Duration
	migrated bool
}

func (p *proc) resident() int {
	n := 0
	for _, c := range p.pages {
		n += c
	}
	return n
}

type retained struct {
	pages   int
	lastUse time.Duration
}

// System is one client's virtual memory system.
type System struct {
	mem *Memory
	io  IO

	procs    map[int32]*proc
	retained map[uint64]*retained // execFile -> sticky code pages
	retPages int

	st Stats
}

// NewSystem returns a VM system over the given memory arbiter, performing
// its paging I/O through io, which must be non-nil.
func NewSystem(mem *Memory, io IO) *System {
	if io == nil {
		panic("vm: nil IO")
	}
	return &System{
		mem:      mem,
		io:       io,
		procs:    make(map[int32]*proc),
		retained: make(map[uint64]*retained),
	}
}

// Stats returns a snapshot of the paging counters.
func (s *System) Stats() Stats { return s.st }

// ResidentPages returns pages held by live processes plus retained code.
func (s *System) ResidentPages() int {
	n := s.retPages
	for _, p := range s.procs {
		n += p.resident()
	}
	return n
}

// acquire obtains n physical pages from the arbiter for pid, evicting
// colder pages when memory is exhausted. The file-cache squeeze implied by
// AcquireVM is observed by the client glue through the Memory shares.
func (s *System) acquire(pid int32, n int, now time.Duration) {
	for granted := 0; granted < n; {
		g, _ := s.mem.AcquireVM(n - granted)
		if g == 0 {
			if !s.evictOne(pid, now) {
				// Nothing evictable: run overcommitted rather than
				// deadlock; the real system would thrash.
				return
			}
			continue
		}
		granted += g
	}
}

// Start creates a process image: code and initialized data are faulted in
// from the executable file (reusing retained code pages when the same
// program ran recently — "Sprite keeps code pages in memory even after
// processes exit"), and stack pages are allocated zero-fill with no I/O.
func (s *System) Start(pid int32, execFile uint64, codePages, dataPages, stackPages int, migrated bool, now time.Duration) {
	if _, dup := s.procs[pid]; dup {
		panic(fmt.Sprintf("vm: duplicate pid %d", pid))
	}
	if codePages < 0 || dataPages < 0 || stackPages < 0 {
		panic("vm: negative page counts")
	}
	p := &proc{pid: pid, execFile: execFile, migrated: migrated, lastRef: now}
	s.procs[pid] = p

	// Code: reuse the retained pool when possible. Reused pages are
	// already VM-owned, so only the faulted remainder is acquired.
	reuse := 0
	if r := s.retained[execFile]; r != nil {
		reuse = r.pages
		if reuse > codePages {
			reuse = codePages
		}
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

	// Initialized data: copied from the file cache on first reference.
	s.acquire(pid, dataPages, now)
	p.pages[PageInitData] = dataPages
	if dataPages > 0 {
		bytes := int64(dataPages) * PageSize
		s.io.DataIn(execFile, int64(codePages)*PageSize, bytes, migrated)
		s.st.BytesIn[PageInitData] += bytes
	}

	// Stack: zero-fill, no I/O.
	s.acquire(pid, stackPages, now)
	p.pages[PageStack] = stackPages
}

// evictOne evicts one cold page: retained code first (dropped, no I/O),
// then the LRU process's pages — clean classes dropped (code/init-data can
// be re-faulted through the file cache), dirty heap/stack written to the
// backing file. Returns false if nothing is evictable.
func (s *System) evictOne(exceptPid int32, now time.Duration) bool {
	if s.dropOneRetained(func(*retained) bool { return true }) {
		s.mem.ReleaseVM(1)
		s.st.Evictions++
		return true
	}
	var victim *proc
	for _, p := range s.procs {
		if p.pid == exceptPid {
			continue
		}
		if colder(p, victim) {
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

// colder reports whether p is a better eviction victim than the current
// one, v (nil if none yet): the least recently referenced process, and of
// processes referenced at the same instant the lowest pid, so the choice
// never rests on map iteration order.
func colder(p, v *proc) bool {
	return v == nil || p.lastRef < v.lastRef || p.lastRef == v.lastRef && p.pid < v.pid
}

// dropOneRetained removes one retained code page matching the predicate
// (oldest first; of images last used at the same instant, the lowest exec
// id) and reports whether one was found.
func (s *System) dropOneRetained(ok func(*retained) bool) bool {
	var oldestExec uint64
	var oldest *retained
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

// stealPage removes one page from victim, paging dirty classes out to the
// backing file. It reports whether a page was taken.
func (s *System) stealPage(victim *proc) bool {
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

// Touch marks a process active: its pages are referenced, any paged-out
// pages fault back in from the backing file, and growHeap new heap pages
// are allocated (dirty). Unknown pids are ignored (the process exited).
func (s *System) Touch(pid int32, growHeap int, now time.Duration) {
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

// PageOut writes up to n of pid's heap pages to the backing file and
// releases the physical pages (working-set trimming under memory
// pressure); they fault back in on the next Touch. It returns the number
// paged out.
func (s *System) PageOut(pid int32, n int, now time.Duration) int {
	p := s.procs[pid]
	if p == nil || n <= 0 {
		return 0
	}
	if n > p.pages[PageHeap] {
		n = p.pages[PageHeap]
	}
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

// Free releases up to n of pid's heap pages back to the free pool (the
// process freed memory); no I/O results. It returns the number released.
func (s *System) Free(pid int32, n int, now time.Duration) int {
	p := s.procs[pid]
	if p == nil || n <= 0 {
		return 0
	}
	if n > p.pages[PageHeap] {
		n = p.pages[PageHeap]
	}
	p.pages[PageHeap] -= n
	p.lastRef = now
	s.mem.ReleaseVM(n)
	return n
}

// Exit tears a process down: heap and stack pages are discarded without
// writeback ("data pages must be discarded from virtual memory when
// processes exit"), code pages move to the retained pool, and the physical
// pages return to the free pool (except retained code, which stays
// VM-owned).
func (s *System) Exit(pid int32, now time.Duration) {
	p := s.procs[pid]
	if p == nil {
		return
	}
	delete(s.procs, pid)
	code := p.pages[PageCode]
	if code > 0 {
		r := s.retained[p.execFile]
		if r == nil {
			r = &retained{}
			s.retained[p.execFile] = r
		}
		r.pages += code
		r.lastUse = now
		s.retPages += code
	}
	s.mem.ReleaseVM(p.resident() - code)
}

// EvictProcess forcibly evicts a migrated process's memory (the paper's
// "user returns to a workstation that has been used only by migrated
// processes" scenario): dirty heap and stack pages are written to the
// backing file and all physical pages are released; the pages fault back
// in if the process is touched again.
func (s *System) EvictProcess(pid int32, now time.Duration) {
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

// IdlePages returns the number of VM pages unreferenced for at least
// IdleThreshold: retained code plus pages of idle processes. The file
// cache may claim up to this many pages through Memory.AcquireFS.
func (s *System) IdlePages(now time.Duration) int {
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

// DropIdle surrenders n idle pages after the file cache claimed them via
// Memory.AcquireFS (which already adjusted the ownership shares): retained
// code goes first, then pages of idle processes — dirty ones are paged
// out. It returns the number actually dropped.
func (s *System) DropIdle(n int, now time.Duration) int {
	dropped := 0
	for dropped < n {
		if s.dropOneRetained(func(r *retained) bool { return now-r.lastUse >= IdleThreshold }) {
			dropped++
			continue
		}
		var victim *proc
		for _, p := range s.procs {
			if now-p.lastRef < IdleThreshold {
				continue
			}
			if colder(p, victim) {
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
