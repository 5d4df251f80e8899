package vm

import "time"

// PageSize is the machine page size, equal to the cache block size (4 KB).
const PageSize = 4096

// IdleThreshold is how long a VM page must be unreferenced before the file
// cache may claim it (20 minutes in Sprite, chosen after benchmarking).
const IdleThreshold = 20 * time.Minute

// Memory arbitrates one client's physical pages between the virtual memory
// system and the file cache. The file cache's capacity always equals the
// fs share; the client glue keeps fscache.Cache in sync via GrowBy /
// SetCapacity.
type Memory struct {
	total int
	vm    int
	fs    int
	free  int
	fsMin int
}

// NewMemory returns an arbiter over totalPages pages of which the file
// cache initially owns fsInitial (with a floor of fsMin, which the cache
// never drops below — Sprite keeps a minimal cache even under VM pressure).
func NewMemory(totalPages, fsInitial, fsMin int) *Memory {
	if totalPages <= 0 || fsInitial < fsMin || fsMin < 1 || fsInitial > totalPages {
		panic("vm: invalid memory configuration")
	}
	return &Memory{total: totalPages, fs: fsInitial, free: totalPages - fsInitial, fsMin: fsMin}
}

// VMPages returns pages owned by the virtual memory system.
func (m *Memory) VMPages() int { return m.vm }

// FSPages returns pages owned by the file cache.
func (m *Memory) FSPages() int { return m.fs }

// FreePages returns unowned pages.
func (m *Memory) FreePages() int { return m.free }

// AcquireVM grants up to n pages to the VM system, taking free pages first
// and then file-cache pages (VM has preference) down to the cache floor.
// It returns the pages granted and how many must be surrendered by the
// file cache (the client glue shrinks fscache to the new FS share).
func (m *Memory) AcquireVM(n int) (granted, fromFS int) {
	if n <= 0 {
		return 0, 0
	}
	take := n
	if take > m.free {
		fromFS = take - m.free
		if avail := m.fs - m.fsMin; fromFS > avail {
			fromFS = avail
		}
		take = m.free + fromFS
	}
	m.free -= take - fromFS
	m.fs -= fromFS
	m.vm += take
	return take, fromFS
}

// ReleaseVM returns n pages from the VM system to the free pool.
func (m *Memory) ReleaseVM(n int) {
	if n <= 0 {
		return
	}
	if n > m.vm {
		n = m.vm
	}
	m.vm -= n
	m.free += n
}

// AcquireFS grants up to n pages to the file cache: free pages first, then
// — only if idleVM pages are available (VM pages unreferenced for at least
// IdleThreshold, as reported by the VM system) — idle VM pages. It returns
// pages granted and how many came out of VM (the caller informs the VM
// system so it can drop those pages).
func (m *Memory) AcquireFS(n, idleVM int) (granted, fromVM int) {
	if n <= 0 {
		return 0, 0
	}
	take := n
	if take > m.free {
		fromVM = take - m.free
		if fromVM > idleVM {
			fromVM = idleVM
		}
		if fromVM > m.vm {
			fromVM = m.vm
		}
		take = m.free + fromVM
	}
	m.free -= take - fromVM
	m.vm -= fromVM
	m.fs += take
	return take, fromVM
}

// check verifies the page conservation invariant; exported for tests via
// Consistent.
func (m *Memory) Consistent() bool {
	return m.vm >= 0 && m.fs >= m.fsMin && m.free >= 0 && m.vm+m.fs+m.free == m.total
}
