package core

import (
	"fmt"
	"reflect"
	"regexp"
	"strconv"
	"testing"
	"time"
)

// TestCatalogIsConsistent checks the catalog's shape: ids are unique,
// every table row names existing cells of its own section, no cell is
// printed by two rows, and every cell either measures something or
// carries the paper's value — so each one is printed, by a pinned table or
// by its section's detail table.
func TestCatalogIsConsistent(t *testing.T) {
	if n := len(traceCells) + len(counterCells); len(catalog) != n {
		t.Errorf("%d cells but %d distinct ids", n, len(catalog))
	}
	for _, section := range []struct {
		name   string
		cells  []cell
		tables []table
	}{{"Section 4", traceCells, traceTables}, {"Section 5", counterCells, counterTables}} {
		own := map[string]bool{}
		for _, c := range section.cells {
			own[c.id] = true
			if c.trace == nil && c.counter == nil && c.paper == nil {
				t.Errorf("%s: cell %s neither measures nor cites anything", section.name, c.id)
			}
		}
		rowOf := map[string]string{}
		for _, tb := range section.tables {
			for _, ids := range tb.rows {
				for _, id := range ids {
					if !own[id] {
						t.Errorf("%s: %q row names %q, which is not one of its cells", section.name, tb.title, id)
					}
					if prev, dup := rowOf[id]; dup {
						t.Errorf("%s: %s printed by both %q and %q", section.name, id, prev, tb.title)
					}
					rowOf[id] = tb.title
					if tb.perTrace && catalog[id] != nil && catalog[id].trace == nil {
						t.Errorf("%s: per-trace table %q names %s, which reads no trace", section.name, tb.title, id)
					}
				}
			}
		}
	}
}

// neverComputed are the cluster.Report fields no report method fills:
// Table6Report computes writeback and the per-machine SDs for the All
// column only, and Table6Col serves both columns.
var neverComputed = map[string]bool{
	"Table6.Migrated.WritebackPct":         true,
	"Table6.Migrated.SDReadMissPct":        true,
	"Table6.Migrated.SDReadMissTrafficPct": true,
	"Table6.Migrated.SDWritebackPct":       true,
}

// TestCounterCellsPrintEveryReportField sets each numeric leaf of a
// cluster.Report to its own sentinel and renders the Section 5 tables and
// their detail table: a sentinel missing from the output is a field that
// is computed and printed by no cell.
func TestCounterCellsPrintEveryReportField(t *testing.T) {
	var cr CounterResult
	sentinels := map[string]int{}
	next := 70000
	var set func(v reflect.Value, path string)
	set = func(v reflect.Value, path string) {
		switch {
		case v.Type() == reflect.TypeOf(time.Duration(0)):
			v.SetInt(int64(next) * int64(time.Second))
		case v.Kind() == reflect.Struct:
			for i := 0; i < v.NumField(); i++ {
				set(v.Field(i), path+"."+v.Type().Field(i).Name)
			}
			return
		case v.Kind() == reflect.Array:
			for i := 0; i < v.Len(); i++ {
				set(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
			}
			return
		case v.Kind() == reflect.Float64:
			v.SetFloat(float64(next))
		case v.Kind() == reflect.Int64 || v.Kind() == reflect.Int:
			v.SetInt(int64(next))
		default:
			t.Fatalf("%s: no sentinel for kind %s", path, v.Kind())
		}
		if path = path[1:]; !neverComputed[path] {
			sentinels[path] = next
		}
		next++
	}
	set(reflect.ValueOf(&cr.Report).Elem(), "")
	if len(sentinels) < 80 {
		t.Fatalf("only %d leaves found in cluster.Report", len(sentinels))
	}
	out := CounterTables(&cr) + CounterDetail(&cr).String()
	for path, s := range sentinels {
		if !regexp.MustCompile(`(^|[^0-9.])` + strconv.Itoa(s) + `(\.0+)?($|[^0-9.])`).MatchString(out) {
			t.Errorf("cluster.Report.%s is printed by no cell", path)
		}
	}
}
