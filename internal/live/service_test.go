package live

import "testing"

// TestOpenSizesFileWhereClientsRouteIt pins the one routing rule: the
// size an open reports comes from the server the client just opened the
// file on (cluster.ServerFor), including for ids whose server bits name a
// server the group does not have — those fall back to server 0, not to
// bits modulo the group size.
func TestOpenSizesFileWhereClientsRouteIt(t *testing.T) {
	svc, err := NewService(ServiceConfig{Agents: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	n := uint64(len(svc.Cluster.Servers))
	cases := []struct {
		name string
		id   uint64
		size int64
	}{
		{"in range", (n-1)<<48 | 0xabcdef, 12345},
		{"one past the group", n<<48 | 0xabcdef, 23456},
		{"bits modulo group is nonzero", (n+1)<<48 | 0xabcdef, 34567},
		{"all server bits set", 0xffff<<48 | 0xabcdef, 45678},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			svc.Cluster.ServerFor(tc.id).Install(tc.id, tc.size, false, 0)
			resp := svc.Exec(&Request{Verb: VerbOpen, Agent: 1, File: tc.id})
			if resp.Err != "" {
				t.Fatalf("open: %s", resp.Err)
			}
			if resp.Size != tc.size {
				t.Errorf("open reported size %d, want %d", resp.Size, tc.size)
			}
			if got := svc.Exec(&Request{Verb: VerbGetattr, Agent: 1, File: tc.id}).Size; got != tc.size {
				t.Errorf("getattr reported size %d, want %d", got, tc.size)
			}
			if r := svc.Exec(&Request{Verb: VerbClose, Agent: 1, Handle: resp.Handle}); r.Err != "" {
				t.Errorf("close: %s", r.Err)
			}
		})
	}
}
