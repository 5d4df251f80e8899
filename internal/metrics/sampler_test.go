package metrics

import (
	"math"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestSamplerKeepsEveryRow samples past the 4096 rows a ring once kept
// and requires every row, oldest first.
func TestSamplerKeepsEveryRow(t *testing.T) {
	r := New()
	var v int64
	r.Int(Desc{Name: "n_total", Unit: "ops", Help: "n", Kind: Counter},
		Labels{L("client", "0")}, func() int64 { return v })
	s := NewSampler(r, nil)
	const n = 5000
	for i := 1; i <= n; i++ {
		v = int64(i * 10)
		s.Sample(time.Duration(i) * time.Second)
	}
	if s.Len() != n {
		t.Fatalf("len=%d, want %d", s.Len(), n)
	}
	ser := s.Get("n_total", `{client="0"}`)
	if len(ser.Values) != n || ser.Values[0] != 10 || ser.Values[n-1] != 10*n {
		t.Fatalf("series has %d values, want %d running 10..%d", len(ser.Values), n, 10*n)
	}
	if ser.Times[0] != time.Second || ser.Times[n-1] != n*time.Second {
		t.Fatalf("series spans %v..%v, want 1s..%v", ser.Times[0], ser.Times[n-1], n*time.Second)
	}
}

func TestSamplerLateColumns(t *testing.T) {
	r := New()
	d := Desc{Name: "m_total", Unit: "ops", Help: "m", Kind: Counter}
	r.Int(d, Labels{L("i", "0")}, func() int64 { return 1 })
	s := NewSampler(r, nil)
	s.Sample(time.Second)
	// A second instance appears after the first sample (replay clients
	// materialize lazily); earlier rows must read as missing, not zero.
	r.Int(d, Labels{L("i", "1")}, func() int64 { return 2 })
	s.Sample(2 * time.Second)

	late := s.Get("m_total", `{i="1"}`)
	if !math.IsNaN(late.Values[0]) || late.Values[1] != 2 {
		t.Fatalf("late column values = %v", late.Values)
	}
	var b strings.Builder
	if err := s.WriteTSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("tsv lines = %d:\n%s", len(lines), b.String())
	}
	if !strings.Contains(lines[1], "\t-") {
		t.Fatalf("missing value not rendered as '-': %q", lines[1])
	}
}

func TestSamplerMatchFilterAndDeterminism(t *testing.T) {
	build := func() string {
		r := New()
		r.Int(Desc{Name: "keep_total", Unit: "ops", Help: "k", Kind: Counter}, nil, func() int64 { return 7 })
		r.Int(Desc{Name: "drop_total", Unit: "ops", Help: "d", Kind: Counter}, nil, func() int64 { return 9 })
		s := NewSampler(r, func(name string) bool { return name == "keep_total" })
		s.Sample(time.Second)
		s.Sample(2 * time.Second)
		var b strings.Builder
		if err := s.WriteTSV(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	out := build()
	if strings.Contains(out, "drop_total") {
		t.Fatalf("filtered metric leaked into series:\n%s", out)
	}
	if out != build() {
		t.Fatal("sampler TSV not deterministic")
	}
}

// TestSamplerRowZeroAlloc: once every instance has its column, a row
// allocates only its value slice — no column id is rendered and no map is
// consulted per instance (`make allocscheck`). The cluster's default
// sampler reads these five columns of 40 workstations every simulated
// minute.
func TestSamplerRowZeroAlloc(t *testing.T) {
	r := New()
	var ops [40]int64
	var busy [40]time.Duration
	for i := range ops {
		ls := Labels{L("client", strconv.Itoa(i))}
		for _, scope := range []string{"all", "migrated"} {
			sls := Labels{ls[0], L("scope", scope)}
			r.IntVar(Desc{Name: "spritefs_cache_read_ops_total", Unit: "ops", Help: "r", Kind: Counter}, sls, &ops[i])
			r.IntVar(Desc{Name: "spritefs_cache_write_ops_total", Unit: "ops", Help: "w", Kind: Counter}, sls, &ops[i])
		}
		r.Int(Desc{Name: "spritefs_cache_size_bytes", Unit: "bytes", Help: "s", Kind: Gauge}, ls, func() int64 { return ops[i] })
		r.SecondsVar(Desc{Name: "spritefs_client_busy_seconds", Help: "b", Kind: Counter}, ls, &busy[i])
	}
	// The same workstations as one column: a row reads its members in
	// place, resolving nothing once their ids are unchanged.
	ids := make([]int64, len(ops))
	for i := range ids {
		ids[i] = int64(i)
	}
	pop := &Population{Key: "client", Len: func() int { return len(ids) }, ID: func(i int) int64 { return ids[i] }}
	r.IntColumn(Desc{Name: "spritefs_vm_evictions_total", Unit: "pages", Help: "e", Kind: Counter}, pop, nil,
		func(i int) int64 { return ops[i] })
	s := NewSampler(r, nil)
	s.Sample(time.Minute) // resolves every column
	s.rows = slices.Grow(s.rows, 200)
	allocs := testing.AllocsPerRun(100, func() {
		ops[7]++
		s.Sample(time.Duration(s.Len()+1) * time.Minute)
	})
	if allocs > 1 {
		t.Errorf("a row over %d resolved columns allocated %.0f times, want 1 (its value slice)", len(s.cols), allocs)
	}
	ser := s.Get("spritefs_cache_size_bytes", `{client="7"}`)
	if got := ser.Values[len(ser.Values)-1]; got != float64(ops[7]) {
		t.Errorf("last row read the size of client 7 as %g, want %d", got, ops[7])
	}
	if got := s.Get("spritefs_vm_evictions_total", `{client="7"}`).Values; got[len(got)-1] != float64(ops[7]) {
		t.Errorf("last row read client 7's column member as %g, want %d", got[len(got)-1], ops[7])
	}
}

// TestSamplerColumnsSurviveFamilyGrowth: a column resolved before its
// family grew past 512 further instances still reads its instance, and the
// late columns read as missing before they existed.
func TestSamplerColumnsSurviveFamilyGrowth(t *testing.T) {
	r := New()
	d := Desc{Name: "g_total", Unit: "ops", Help: "g", Kind: Counter}
	a := int64(1)
	r.IntVar(d, Labels{L("i", "a")}, &a)
	s := NewSampler(r, nil)
	s.Sample(time.Second)
	late := make([]int64, 600)
	for i := range late {
		late[i] = int64(i)
		r.IntVar(d, Labels{L("i", strconv.Itoa(i))}, &late[i])
	}
	a = 42
	s.Sample(2 * time.Second)
	if got := s.Get("g_total", `{i="a"}`).Values; got[0] != 1 || got[1] != 42 {
		t.Fatalf("first column after growth = %v, want [1 42]", got)
	}
	for i := range late {
		got := s.Get("g_total", `{i="`+strconv.Itoa(i)+`"}`).Values
		if !math.IsNaN(got[0]) || got[1] != float64(i) {
			t.Fatalf("late column %d = %v, want [NaN %d]", i, got, i)
		}
	}
}
