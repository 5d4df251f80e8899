package workload

import (
	"slices"
	"testing"

	"spritefs/internal/server"
	"spritefs/internal/sim"
)

// TestRegistryFilesInCreationOrder checks, on a single server, that the
// registry lists every regular file it made and nothing else, in the order
// it made them: the server hands out ids in ascending order, so that order
// is the server's non-directory ids sorted. Big-sim inputs are on, so
// every kind of file is covered.
func TestRegistryFilesInCreationOrder(t *testing.T) {
	p := smallParams(5)
	p.BigSimUsers = 2
	srv := server.New(0)
	reg := Bootstrap(p, []*server.Server{srv}, sim.NewRand(11))

	var want []uint64
	dirs := 0
	for seq := uint64(1); seq <= uint64(srv.Stats().Creates); seq++ {
		id := server.FileID(0, seq)
		f := srv.Lookup(id)
		if f == nil {
			t.Fatalf("id %#x missing on the server", id)
		}
		if f.Directory {
			dirs++
			continue
		}
		want = append(want, id)
	}
	if users := p.DailyUsers + p.OccasionalUsers; dirs != users+int(NumGroups) {
		t.Errorf("%d directories, want %d", dirs, users+int(NumGroups))
	}
	var got []uint64
	reg.EachFile(func(id uint64) { got = append(got, id) })
	if !slices.Equal(got, want) {
		t.Fatalf("registry files (%d) differ from the server's regular files (%d):\n%v\n%v", len(got), len(want), got, want)
	}
}

// TestBootstrapPerUserZeroAlloc gates the registry's per-user cost in
// allocations: building 3000 more users may add only what the servers
// themselves allocate as they grow, never one allocation per user. That
// growth is one 256-file chunk per 256 woken files (each user's home
// directory is one) and a doubling of each server's id index now and then:
// about 22 here.
func TestBootstrapPerUserZeroAlloc(t *testing.T) {
	allocs := func(users int) float64 {
		p := Default(1)
		p.DailyUsers, p.OccasionalUsers = users*3/4, users/4
		return testing.AllocsPerRun(3, func() {
			servers := []*server.Server{server.New(0), server.New(1), server.New(2)}
			Bootstrap(p, servers, sim.NewRand(7))
		})
	}
	small, large := allocs(1000), allocs(4000)
	if large-small > 32 {
		t.Errorf("Bootstrap allocates %.0f times for 1000 users, %.0f for 4000", small, large)
	}
}
