package cluster

import (
	"testing"
	"time"
)

// TestClientByID pins the coordinator's one client lookup over the
// id-ascending client slice: the dense fast path, the sparse binary
// search, and nil — never a panic — for ids no workstation has, negative
// ones (the scale gateways' pseudo-clients) included.
func TestClientByID(t *testing.T) {
	cases := []struct {
		name    string
		add     []int32 // in insertion order
		present []int32
		absent  []int32
	}{
		{"dense", []int32{0, 1, 2, 3}, []int32{0, 1, 2, 3}, []int32{4, 100}},
		{"sparse", []int32{3, 7, 40}, []int32{3, 7, 40}, []int32{0, 1, 2, 5, 39, 41}},
		{"negative", []int32{0, 1}, []int32{0, 1}, []int32{-1, -1000, -1 << 31}},
		{"unknown", nil, nil, []int32{0, 1, -1}},
		{"out of id order", []int32{9, 2, 5, 0, 7}, []int32{0, 2, 5, 7, 9}, []int32{1, 3, 4, 6, 8, 10}},
		{"dense prefix then sparse", []int32{0, 1, 2, 10, 20}, []int32{0, 1, 2, 10, 20}, []int32{3, 4, 11}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewSystem(Config{NumServers: 1})
			for _, id := range tc.add {
				if got := c.AddClient(id); got.ID() != id {
					t.Fatalf("AddClient(%d) returned client %d", id, got.ID())
				}
			}
			for i := 1; i < len(c.Clients); i++ {
				if c.Clients[i-1].ID() >= c.Clients[i].ID() {
					t.Fatalf("Clients not id-ascending at %d: %d then %d", i, c.Clients[i-1].ID(), c.Clients[i].ID())
				}
			}
			for _, id := range tc.present {
				if cl := c.ClientByID(id); cl == nil || cl.ID() != id {
					t.Errorf("ClientByID(%d) = %v, want client %d", id, cl, id)
				}
			}
			for _, id := range tc.absent {
				if cl := c.ClientByID(id); cl != nil {
					t.Errorf("ClientByID(%d) = client %d, want nil", id, cl.ID())
				}
				// The coordinator callbacks route through the same lookup:
				// a recall or disable naming an absent id is a no-op.
				c.RecallFrom(id, 1)
				c.DisableCaching([]int32{id}, 1)
			}
		})
	}
}

func TestAddClientRejectsDuplicateAndNegative(t *testing.T) {
	for _, id := range []int32{3, -1} {
		func() {
			c := NewSystem(Config{NumServers: 1})
			c.AddClient(3)
			defer func() {
				if recover() == nil {
					t.Errorf("AddClient(%d) on a cluster holding client 3 did not panic", id)
				}
			}()
			c.AddClient(id)
		}()
	}
}

// TestAddClientWhileRunning: a workstation brought up between StartDaemons
// and Finish runs its delayed-write daemon from then on; one added to an
// idle system waits for StartDaemons.
func TestAddClientWhileRunning(t *testing.T) {
	c := NewSystem(Config{NumServers: 1})
	c.AddClient(0)
	pending := c.Sim.Pending()
	c.StartDaemons()
	afterStart := c.Sim.Pending()
	if afterStart <= pending {
		t.Fatalf("StartDaemons scheduled nothing (%d -> %d pending)", pending, afterStart)
	}
	c.Sim.RunUntil(time.Minute)
	c.AddClient(1)
	if got := c.Sim.Pending(); got != afterStart+1 {
		t.Errorf("AddClient on a running cluster: %d pending events, want %d (one more cleaner)", got, afterStart+1)
	}
	c.Finish()
	if got := c.Sim.Pending(); got != pending {
		t.Errorf("Finish left %d pending events, want %d", got, pending)
	}
}
