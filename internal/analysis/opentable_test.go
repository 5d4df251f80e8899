package analysis

import "testing"

func TestOpenTable(t *testing.T) {
	var o OpenTable
	check := func(step string, openers, writers int, shared bool) {
		t.Helper()
		if o.Openers() != openers || o.Writers() != writers || o.WriteShared() != shared {
			t.Errorf("%s: openers %d writers %d write-shared %v, want %d %d %v",
				step, o.Openers(), o.Writers(), o.WriteShared(), openers, writers, shared)
		}
	}
	check("empty", 0, 0, false)
	o.Open(1, false)
	o.Open(1, true)
	check("one client reading and writing", 1, 1, false)
	o.Open(2, false)
	check("a second client reading", 2, 1, true)
	o.Close(2, true)
	check("a close in a mode the client has no open in", 2, 1, true)
	o.Close(1, true)
	check("the writer's write open closed", 2, 0, false)
	o.Close(1, false)
	o.Close(2, false)
	check("all closed", 0, 0, false)
	o.Close(3, false)
	check("a close with no open", 0, 0, false)
}
