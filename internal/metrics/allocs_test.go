package metrics

import (
	"testing"

	"spritefs/internal/stats"
)

// The handle-based registration contract: once a counter is registered
// through a Var form, incrementing it is a plain field bump and reading
// it back through the registry's aggregation paths allocates nothing.
// `make allocscheck` runs this gate.

func TestLabeledCounterIncrementZeroAlloc(t *testing.T) {
	r := New()
	d := Desc{Name: "test_ops_total", Unit: "ops", Help: "h", Kind: Counter}
	var counters [8]int64
	var ages [8]stats.Welford
	for i := range counters {
		ls := Labels{L("client", string(rune('a'+i)))}
		r.IntVar(d, ls, &counters[i])
		r.HistSecondsVar(Desc{Name: "test_age_seconds", Help: "h"}, ls, &ages[i])
	}
	sel := L("client", "a")

	allocs := testing.AllocsPerRun(1000, func() {
		for i := range counters {
			counters[i]++ // the hot path the registry must never touch
			ages[i].Add(float64(i))
		}
		if r.SumInt("test_ops_total") == 0 {
			t.Fatal("sum is zero after increments")
		}
		if r.SumInt("test_ops_total", sel) == 0 {
			t.Fatal("selected sum is zero after increments")
		}
	})
	if allocs != 0 {
		t.Fatalf("increment+SumInt allocated %.1f/op, want 0", allocs)
	}
}

// TestColumnSumZeroAlloc: summing a column under a selector on its
// population key and one on an inner label renders no label value: the
// member's id is compared in a stack buffer.
func TestColumnSumZeroAlloc(t *testing.T) {
	r := New().Scoped(L("shard", "3"))
	ids := []int64{2, 5, 9, 12}
	ops := make([][2]int64, len(ids))
	p := &Population{Key: "client", Len: func() int { return len(ids) }, ID: func(i int) int64 { return ids[i] }}
	d := Desc{Name: "test_ops_total", Unit: "ops", Help: "h", Kind: Counter}
	for s, scope := range []string{"all", "migrated"} {
		r.IntColumn(d, p, Labels{L("scope", scope)}, func(i int) int64 { return ops[i][s] })
	}
	client, all := L("client", "9"), L("scope", "all")

	allocs := testing.AllocsPerRun(1000, func() {
		ops[2][0]++
		ops[1][1]++
		if r.SumInt("test_ops_total", client, all) != ops[2][0] {
			t.Fatal("the selected sum is not client 9's scope=\"all\" count")
		}
		if r.SumInt("test_ops_total", all) != ops[2][0] {
			t.Fatal("the scope=\"all\" sum missed a member")
		}
	})
	if allocs != 0 {
		t.Fatalf("SumInt over a column allocated %.1f/op, want 0", allocs)
	}
}
