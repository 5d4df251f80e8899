package vm

import (
	"cmp"
	"fmt"
	"slices"
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

// retained is one program's sticky code pages.
type retained struct {
	execFile uint64
	pages    int
	lastUse  time.Duration
}

// oldestFirst orders the retained pool as memory pressure consumes it:
// the least recently used image first, and of images last used at the
// same instant the lowest exec id.
func oldestFirst(a, b retained) int {
	return cmp.Or(cmp.Compare(a.lastUse, b.lastUse), cmp.Compare(a.execFile, b.execFile))
}

// System is one client's virtual memory system.
type System struct {
	mem *Memory
	io  IO

	// The live processes, in no particular order: a workstation runs a
	// handful, so a scan finds one, and every choice among them breaks
	// ties by pid. Nil until the first exec.
	procs []proc
	// The retained code images in oldestFirst order, so the next page
	// to drop is always at the front. Nil until code is first retained.
	retained []retained
	retPages int

	st Stats
}

// NewSystem returns a VM system over the given memory arbiter, performing
// its paging I/O through io, which must be non-nil.
func NewSystem(mem *Memory, io IO) *System {
	if io == nil {
		panic("vm: nil IO")
	}
	return &System{mem: mem, io: io}
}

// Stats returns a snapshot of the paging counters.
func (s *System) Stats() Stats { return s.st }

// ResidentPages returns pages held by live processes plus retained code.
func (s *System) ResidentPages() int {
	n := s.retPages
	for i := range s.procs {
		n += s.procs[i].resident()
	}
	return n
}

// proc returns the live process pid, or nil. The pointer is valid until
// the next Start or Exit.
func (s *System) proc(pid int32) *proc {
	for i := range s.procs {
		if s.procs[i].pid == pid {
			return &s.procs[i]
		}
	}
	return nil
}

// image returns the index of execFile's retained code in s.retained, or -1.
func (s *System) image(execFile uint64) int {
	for i := range s.retained {
		if s.retained[i].execFile == execFile {
			return i
		}
	}
	return -1
}

// acquire obtains n physical pages from the arbiter for pid, evicting
// colder pages when memory is exhausted. The file-cache squeeze implied by
// AcquireVM is observed by the client glue through the Memory shares.
func (s *System) acquire(pid int32, n int) {
	for granted := 0; granted < n; {
		g, _ := s.mem.AcquireVM(n - granted)
		if g == 0 {
			// Dropped one at a time, each page would be released and
			// granted straight back; a batch does the same while the VM
			// share covers it, since ReleaseVM clamps at that share.
			if s.evict(pid, min(n-granted, max(s.mem.VMPages(), 1))) == 0 {
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
	if s.proc(pid) != nil {
		panic(fmt.Sprintf("vm: duplicate pid %d", pid))
	}
	if codePages < 0 || dataPages < 0 || stackPages < 0 {
		panic("vm: negative page counts")
	}
	s.procs = append(s.procs, proc{pid: pid, execFile: execFile, migrated: migrated, lastRef: now})
	p := &s.procs[len(s.procs)-1]

	// Code: reuse the retained pool when possible. Reused pages are
	// already VM-owned, so only the faulted remainder is acquired.
	reuse := 0
	if i := s.image(execFile); i >= 0 {
		r := &s.retained[i]
		reuse = min(r.pages, codePages)
		s.retPages -= reuse
		r.pages -= reuse
		if r.pages == 0 {
			s.retained = slices.Delete(s.retained, i, i+1)
		}
		s.st.CodeReuse += int64(reuse)
	}
	faultCode := codePages - reuse
	s.acquire(pid, faultCode)
	p.pages[PageCode] = codePages
	if faultCode > 0 {
		bytes := int64(faultCode) * PageSize
		s.io.CodeIn(execFile, 0, bytes, migrated)
		s.st.BytesIn[PageCode] += bytes
	}

	// Initialized data: copied from the file cache on first reference.
	s.acquire(pid, dataPages)
	p.pages[PageInitData] = dataPages
	if dataPages > 0 {
		bytes := int64(dataPages) * PageSize
		s.io.DataIn(execFile, int64(codePages)*PageSize, bytes, migrated)
		s.st.BytesIn[PageInitData] += bytes
	}

	// Stack: zero-fill, no I/O.
	s.acquire(pid, stackPages)
	p.pages[PageStack] = stackPages
}

// evict frees up to n cold pages and returns how many it freed, 0 if
// nothing is evictable: retained code first (dropped, no I/O), then the
// LRU process's pages — clean classes dropped (code/init-data can be
// re-faulted through the file cache), dirty heap/stack written to the
// backing file one page at a time.
func (s *System) evict(exceptPid int32, n int) int {
	k := 0
	if len(s.retained) > 0 {
		k = s.dropRetained(n)
	} else {
		var victim *proc
		for i := range s.procs {
			if p := &s.procs[i]; p.pid != exceptPid && colder(p, victim) {
				victim = p
			}
		}
		if victim == nil {
			return 0
		}
		k = s.stealPages(victim, n)
	}
	s.mem.ReleaseVM(k)
	s.st.Evictions += int64(k)
	return k
}

// colder reports whether p is a better eviction victim than the current
// one, v (nil if none yet): the least recently referenced process, and of
// processes referenced at the same instant the lowest pid, so the choice
// never rests on slice order.
func colder(p, v *proc) bool {
	return v == nil || p.lastRef < v.lastRef || p.lastRef == v.lastRef && p.pid < v.pid
}

// dropRetained drops up to n pages of the oldest retained image, which
// must exist, and returns how many it dropped.
func (s *System) dropRetained(n int) int {
	r := &s.retained[0]
	k := min(n, r.pages)
	r.pages -= k
	s.retPages -= k
	if r.pages == 0 {
		s.retained = slices.Delete(s.retained, 0, 1)
	}
	return k
}

// stealPages takes pages from victim and returns how many it took, 0 if
// victim holds none: up to n code pages or, once those are gone, up to n
// initialized-data pages, dropped without I/O; failing both, one heap or
// stack page, paged out to the backing file — each page-out is its own
// paging RPC.
func (s *System) stealPages(victim *proc, n int) int {
	for _, c := range [...]PageClass{PageCode, PageInitData} {
		if k := min(n, victim.pages[c]); k > 0 {
			victim.pages[c] -= k
			return k
		}
	}
	for _, c := range [...]PageClass{PageHeap, PageStack} {
		if victim.pages[c] > 0 {
			victim.pages[c]--
			victim.pagedOut++
			s.io.BackingOut(PageSize, victim.migrated)
			s.st.BytesOut[c] += PageSize
			return 1
		}
	}
	return 0
}

// Touch marks a process active: its pages are referenced, any paged-out
// pages fault back in from the backing file, and growHeap new heap pages
// are allocated (dirty). Unknown pids are ignored (the process exited).
func (s *System) Touch(pid int32, growHeap int, now time.Duration) {
	p := s.proc(pid)
	if p == nil {
		return
	}
	p.lastRef = now
	if p.pagedOut > 0 {
		n := p.pagedOut
		p.pagedOut = 0
		s.acquire(pid, n)
		p.pages[PageHeap] += n
		bytes := int64(n) * PageSize
		s.io.BackingIn(bytes, p.migrated)
		s.st.BytesIn[PageHeap] += bytes
		s.st.Refaults += int64(n)
	}
	if growHeap > 0 {
		s.acquire(pid, growHeap)
		p.pages[PageHeap] += growHeap
	}
}

// PageOut writes up to n of pid's heap pages to the backing file and
// releases the physical pages (working-set trimming under memory
// pressure); they fault back in on the next Touch. It returns the number
// paged out.
func (s *System) PageOut(pid int32, n int, now time.Duration) int {
	p := s.proc(pid)
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
	p := s.proc(pid)
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
	p := s.proc(pid)
	if p == nil {
		return
	}
	code, rest := p.pages[PageCode], p.resident()-p.pages[PageCode]
	if code > 0 {
		s.retain(p.execFile, code, now)
	}
	*p = s.procs[len(s.procs)-1]
	s.procs = s.procs[:len(s.procs)-1]
	s.mem.ReleaseVM(rest)
}

// retain adds pages to execFile's retained code, last used now, and moves
// the image to its place in oldestFirst order.
func (s *System) retain(execFile uint64, pages int, now time.Duration) {
	s.retPages += pages
	if i := s.image(execFile); i >= 0 {
		pages += s.retained[i].pages
		s.retained = slices.Delete(s.retained, i, i+1)
	}
	r := retained{execFile: execFile, pages: pages, lastUse: now}
	i, _ := slices.BinarySearchFunc(s.retained, r, oldestFirst)
	s.retained = slices.Insert(s.retained, i, r)
}

// EvictProcess forcibly evicts a migrated process's memory (the paper's
// "user returns to a workstation that has been used only by migrated
// processes" scenario): dirty heap and stack pages are written to the
// backing file and all physical pages are released; the pages fault back
// in if the process is touched again.
func (s *System) EvictProcess(pid int32, now time.Duration) {
	p := s.proc(pid)
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
		if now-r.lastUse < IdleThreshold {
			break // the rest were used later still
		}
		n += r.pages
	}
	for i := range s.procs {
		if p := &s.procs[i]; now-p.lastRef >= IdleThreshold {
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
		// The pool is oldest first: if its front is not idle, no image is.
		if len(s.retained) > 0 && now-s.retained[0].lastUse >= IdleThreshold {
			dropped += s.dropRetained(n - dropped)
			continue
		}
		var victim *proc
		for i := range s.procs {
			if p := &s.procs[i]; now-p.lastRef >= IdleThreshold && colder(p, victim) {
				victim = p
			}
		}
		if victim == nil {
			break
		}
		k := s.stealPages(victim, n-dropped)
		if k == 0 {
			break
		}
		dropped += k
	}
	return dropped
}
