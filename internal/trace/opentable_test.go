package trace

import (
	"slices"
	"testing"
)

func TestOpenTable(t *testing.T) {
	var o OpenTable
	check := func(step string, openers, writers int, shared bool) {
		t.Helper()
		if o.Openers() != openers || o.Writers() != writers || o.WriteShared() != shared {
			t.Errorf("%s: openers %d writers %d write-shared %v, want %d %d %v",
				step, o.Openers(), o.Writers(), o.WriteShared(), openers, writers, shared)
		}
	}
	closes := func(step string, client int32, write, want bool) {
		t.Helper()
		if got := o.Close(client, write); got != want {
			t.Errorf("%s: Close(%d, write %v) = %v, want %v", step, client, write, got, want)
		}
	}
	check("empty", 0, 0, false)
	o.Open(1, false)
	o.Open(1, true)
	check("one client reading and writing", 1, 1, false)
	o.Open(2, false)
	check("a second client reading", 2, 1, true)
	closes("a close in a mode the client has no open in", 2, true, false)
	check("after the unmatched close", 2, 1, true)
	closes("the writer's write open", 1, true, true)
	check("the writer's write open closed", 2, 0, false)
	closes("client 1's read open", 1, false, true)
	closes("client 2's read open", 2, false, true)
	check("all closed", 0, 0, false)
	closes("a close by an unknown client", 3, false, false)
	check("a close with no open", 0, 0, false)
}

func TestOpenTableSet(t *testing.T) {
	var o OpenTable
	o.Open(1, false)
	if had := o.Set(2, 1, 2); had != 0 {
		t.Errorf("Set adding client 2 replaced %d opens, want 0", had)
	}
	if r, w := o.Registration(2); r != 1 || w != 2 || o.Openers() != 2 {
		t.Errorf("after adding: client 2 has %d/%d, %d openers; want 1/2, 2", r, w, o.Openers())
	}
	if had := o.Set(2, 0, 1); had != 3 {
		t.Errorf("Set replacing client 2 replaced %d opens, want 3", had)
	}
	if r, w := o.Registration(2); r != 0 || w != 1 {
		t.Errorf("after replacing: client 2 has %d/%d, want 0/1", r, w)
	}
	if had := o.Set(2, 0, 1); had != 1 {
		t.Errorf("a repeated Set replaced %d opens, want 1", had)
	}
	if had := o.Set(2, 0, 0); had != 1 {
		t.Errorf("Set dropping client 2 replaced %d opens, want 1", had)
	}
	if r, w := o.Registration(2); r != 0 || w != 0 || o.Openers() != 1 {
		t.Errorf("after dropping: client 2 has %d/%d, %d openers; want 0/0, 1", r, w, o.Openers())
	}
	if had := o.Set(3, 0, 0); had != 0 || o.Openers() != 1 {
		t.Errorf("Set dropping an unknown client replaced %d opens and left %d openers, want 0 and 1", had, o.Openers())
	}
	if r, w := o.Registration(1); r != 1 || w != 0 {
		t.Errorf("client 1, untouched, has %d/%d, want 1/0", r, w)
	}
}

func TestOpenTableClear(t *testing.T) {
	var o OpenTable
	o.Open(1, false)
	o.Open(1, true)
	o.Open(2, true)
	o.Open(3, false)
	capacity := cap(o.entries)
	if n := o.Clear(); n != 4 {
		t.Errorf("Clear dropped %d opens, want 4", n)
	}
	if o.Openers() != 0 || cap(o.entries) != capacity {
		t.Errorf("after Clear: %d openers, capacity %d; want 0 and %d", o.Openers(), cap(o.entries), capacity)
	}
	if n := o.Clear(); n != 0 {
		t.Errorf("clearing an empty table dropped %d opens, want 0", n)
	}
}

func TestOpenTableOthers(t *testing.T) {
	var o OpenTable
	for _, c := range []int32{7, 2, 9, 4} {
		o.Open(c, c == 9)
	}
	if got, want := o.Others(9), []int32{2, 4, 7}; !slices.Equal(got, want) {
		t.Errorf("Others(9) = %v, want %v", got, want)
	}
	if got, want := o.Others(5), []int32{2, 4, 7, 9}; !slices.Equal(got, want) {
		t.Errorf("Others of a non-opener = %v, want %v", got, want)
	}
	var empty OpenTable
	if got := empty.Others(1); len(got) != 0 {
		t.Errorf("Others on an empty table = %v, want none", got)
	}
}
