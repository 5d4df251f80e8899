package migrate

import (
	"slices"
	"testing"

	"spritefs/internal/sim"
)

func TestNewPoolValidation(t *testing.T) {
	rng := sim.NewRand(1)
	for _, fn := range []func(){
		func() { NewPool(3, 0.5, nil) },
		func() { NewPool(3, -0.1, rng) },
		func() { NewPool(3, 1.1, rng) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestSelectNeverPicksRequesterOrActiveHost(t *testing.T) {
	p := NewPool(4, 0.5, sim.NewRand(1))
	p.SetOwnerActive(1, true)
	p.SetOwnerActive(2, true)
	for i := 0; i < 100; i++ {
		h, ok := p.Select(0)
		if !ok {
			t.Fatal("no host found")
		}
		if h == 0 || h == 1 || h == 2 {
			t.Fatalf("selected %d (requester or active)", h)
		}
	}
}

func TestSelectNoIdleHosts(t *testing.T) {
	p := NewPool(2, 0.5, sim.NewRand(1))
	p.SetOwnerActive(1, true)
	if _, ok := p.Select(0); ok {
		t.Error("selected a host with none idle")
	}
}

func TestReuseBias(t *testing.T) {
	// With bias 1.0, once a host is picked it is always re-picked while
	// idle — the locality that boosts migrated processes' hit ratios.
	p := NewPool(10, 1.0, sim.NewRand(7))
	first, ok := p.Select(0)
	if !ok {
		t.Fatal("no pick")
	}
	for i := 0; i < 50; i++ {
		h, _ := p.Select(0)
		if h != first {
			t.Fatalf("bias 1.0 switched host: %d -> %d", first, h)
		}
	}
	// When the favourite goes busy, selection moves on.
	p.SetOwnerActive(first, true)
	h, ok := p.Select(0)
	if !ok || h == first {
		t.Errorf("picked busy favourite %d", h)
	}
}

func TestZeroBiasSpreadsLoad(t *testing.T) {
	p := NewPool(8, 0, sim.NewRand(3))
	seen := map[int32]bool{}
	for i := 0; i < 300; i++ {
		h, _ := p.Select(-1)
		seen[h] = true
	}
	if len(seen) != 8 {
		t.Errorf("zero bias used only %d hosts", len(seen))
	}
}

func TestOwnerReturnEvictsMigrants(t *testing.T) {
	p := NewPool(3, 0.5, sim.NewRand(1))
	p.AddMigrant(1, 100)
	p.AddMigrant(1, 101)
	p.AddMigrant(2, 102)

	evicted := p.SetOwnerActive(1, true)
	if len(evicted) != 2 || evicted[0] != 100 || evicted[1] != 101 {
		t.Errorf("evicted = %v", evicted)
	}
	if got := p.Migrants(1); len(got) != 0 {
		t.Errorf("migrants after eviction = %v", got)
	}
	if got := p.Migrants(2); len(got) != 1 || got[0] != 102 {
		t.Errorf("unrelated host disturbed: %v", got)
	}
	// Owner going away again evicts nothing.
	if ev := p.SetOwnerActive(1, false); len(ev) != 0 {
		t.Errorf("owner departure evicted %v", ev)
	}

	// Migrants added out of pid order, one removed from the middle, still
	// come back in ascending order.
	for _, pid := range []int32{205, 201, 209, 203, 207} {
		p.AddMigrant(1, pid)
	}
	p.RemoveMigrant(1, 205)
	if got := p.Migrants(1); !slices.Equal(got, []int32{201, 203, 207, 209}) {
		t.Errorf("migrants = %v, want [201 203 207 209]", got)
	}
	if got := p.SetOwnerActive(1, true); !slices.Equal(got, []int32{201, 203, 207, 209}) {
		t.Errorf("evicted = %v, want [201 203 207 209]", got)
	}
}

func TestMigrantLifecycle(t *testing.T) {
	p := NewPool(2, 0.5, sim.NewRand(1))
	p.AddMigrant(0, 7)
	if got := p.Migrants(0); len(got) != 1 || got[0] != 7 {
		t.Errorf("migrants after AddMigrant = %v", got)
	}
	p.RemoveMigrant(0, 7)
	if len(p.Migrants(0)) != 0 {
		t.Error("migrant not removed")
	}
	p.RemoveMigrant(99, 7) // unknown host tolerated
	if p.Migrants(99) != nil {
		t.Error("unknown host has migrants")
	}
}

func TestAddMigrantUnknownHostPanics(t *testing.T) {
	p := NewPool(2, 0.5, sim.NewRand(1))
	for _, host := range []int32{42, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AddMigrant(%d, 1): no panic", host)
				}
			}()
			p.AddMigrant(host, 1)
		}()
	}
}

func TestIdleHosts(t *testing.T) {
	p := NewPool(5, 0.5, sim.NewRand(1))
	if p.IdleHosts() != 5 {
		t.Errorf("idle = %d", p.IdleHosts())
	}
	p.SetOwnerActive(0, true)
	p.SetOwnerActive(1, true)
	if p.IdleHosts() != 3 {
		t.Errorf("idle = %d", p.IdleHosts())
	}
}

func TestDeterministicSelection(t *testing.T) {
	run := func() []int32 {
		p := NewPool(6, 0.6, sim.NewRand(42))
		var picks []int32
		for i := 0; i < 40; i++ {
			h, _ := p.Select(0)
			picks = append(picks, h)
		}
		return picks
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("selection not deterministic")
		}
	}
}

// TestSelectZeroAlloc: a warm Select over a 64-host pool, on both the
// reuse and the uniform path, allocates nothing.
func TestSelectZeroAlloc(t *testing.T) {
	p := NewPool(64, 0.5, sim.NewRand(1))
	for h := int32(0); h < 64; h += 3 {
		p.SetOwnerActive(h, true)
	}
	requester := int32(0)
	allocs := testing.AllocsPerRun(1000, func() {
		if _, ok := p.Select(requester); !ok {
			t.Fatal("no idle host")
		}
		requester = (requester + 1) % 64
	})
	if allocs != 0 {
		t.Fatalf("Select allocated %.1f/op, want 0", allocs)
	}
}
