package drivers

import (
	"reflect"
	"testing"
	"time"
)

// TestEveryDriverMeasuresSomething runs each driver briefly: all of them
// must reach their layer through its public API without failing, and report
// a positive cost.
func TestEveryDriverMeasuresSomething(t *testing.T) {
	old := MinTime
	MinTime = 5 * time.Millisecond
	defer func() { MinTime = old }()

	got := RunAll(1)
	if len(got) != 11 {
		t.Errorf("%d driver metrics, want 11: %v", len(got), got)
	}
	for name, v := range got {
		if !(v > 0) {
			t.Errorf("%s = %v, want a positive number", name, v)
		}
	}
	// A resident read must be cheaper than a miss that evicts.
	if hit, miss := got["fscache.driver_hit_ns"], got["fscache.driver_miss_evict_ns"]; hit >= miss {
		t.Errorf("cache hit costs %v ns, miss+evict %v ns", hit, miss)
	}
}

func TestTraceRecordsAreAFunctionOfTheSeed(t *testing.T) {
	a, b := traceRecords(5, 1000), traceRecords(5, 1000)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave two record streams")
	}
	if reflect.DeepEqual(a, traceRecords(6, 1000)) {
		t.Error("two seeds gave one record stream")
	}
	for i := 1; i < len(a); i++ {
		if a[i].Time < a[i-1].Time {
			t.Fatalf("record %d goes back in time", i)
		}
	}
}
