package server

import (
	"testing"
	"time"

	"spritefs/internal/fscache"
)

// The name space's and the block service's steady state allocate nothing:
// a Create that lands in a chunk already made and inside the index, a
// dormant BootstrapFile inside the index, a warm server cache serving a
// run of hits, and the open table's open, close and recovery
// re-registration once it has held a file's openers. `make allocscheck`
// runs these.

func TestCreateZeroAlloc(t *testing.T) {
	s := New(0)
	s.Create(false, 0) // makes the first chunk and the index
	// AllocsPerRun's warm-up and runs make 101 more files: one chunk holds
	// them all.
	allocs := testing.AllocsPerRun(100, func() { s.Create(false, 0) })
	if allocs != 0 {
		t.Fatalf("Create allocated %.1f/op inside a made chunk, want 0", allocs)
	}
}

func TestBootstrapFileZeroAlloc(t *testing.T) {
	s := New(0)
	s.BootstrapFile(1, false) // makes the index
	// AllocsPerRun's warm-up and runs file 101 more: the index holds them.
	allocs := testing.AllocsPerRun(100, func() { s.BootstrapFile(4096, false) })
	if allocs != 0 || s.files.nslots != 0 {
		t.Fatalf("BootstrapFile allocated %.1f/op and took %d slots inside a made index, want 0 and 0", allocs, s.files.nslots)
	}
}

func TestServeRunsZeroAlloc(t *testing.T) {
	const blocks = 16
	s := New(0)
	s.AttachStorage(64)
	f := s.Create(false, 0)
	s.Grow(f.ID, blocks*fscache.BlockSize, 0)
	runs := []fscache.Run{{First: 0, N: blocks}}
	if d := s.ServeRuns(f.ID, runs, 0); d != blocks*s.Store.DiskAccess {
		t.Fatalf("cold run took %v of disk, want %d reads", d, blocks)
	}
	now := time.Duration(0)
	allocs := testing.AllocsPerRun(100, func() {
		now += time.Millisecond
		if d := s.ServeRuns(f.ID, runs, now); d != 0 {
			t.Fatalf("warm run took %v of disk", d)
		}
	})
	if allocs != 0 {
		t.Fatalf("a warm run of hits allocated %.1f/op, want 0", allocs)
	}
}

func TestOpenCloseZeroAlloc(t *testing.T) {
	s := New(0)
	f := s.Create(false, 0)
	// One cycle: a writer closes with dirty data, and a reader's open
	// recalls it. The first cycle gives the table its storage.
	cycle := func() {
		if _, err := s.Open(f.ID, 1, true, 0); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(f.ID, 1, true, true, 0); err != nil {
			t.Fatal(err)
		}
		if r, err := s.Open(f.ID, 2, false, 0); err != nil || r.RecallFrom != 1 {
			t.Fatalf("reader's open = %+v, %v; want a recall from client 1", r, err)
		}
		if err := s.Close(f.ID, 2, false, false, 0); err != nil {
			t.Fatal(err)
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("an open/close cycle allocated %.1f/op, want 0", allocs)
	}

	// A re-registration after a restart, and its withdrawal.
	s.Crash(0)
	s.Restart(0)
	reregister := func() {
		if _, err := s.Recover(f.ID, 1, 1, 1, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Recover(f.ID, 1, 0, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(100, reregister); allocs != 0 {
		t.Fatalf("a recovery re-registration allocated %.1f/op, want 0", allocs)
	}
}
