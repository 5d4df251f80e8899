package metrics

import (
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"spritefs/internal/stats"
)

func testRegistry() (*Registry, *int64, *int64) {
	r := New()
	a, b := new(int64), new(int64)
	d := Desc{Name: "spritefs_test_ops_total", Unit: "ops", Help: "test ops", Kind: Counter}
	r.Int(d, Labels{L("client", "0")}, func() int64 { return *a })
	r.Int(d, Labels{L("client", "1")}, func() int64 { return *b })
	busy := 1500 * time.Millisecond
	r.SecondsVar(Desc{Name: "spritefs_test_busy_seconds", Help: "busy", Kind: Gauge}, nil, &busy)
	return r, a, b
}

func TestSumAndSelectors(t *testing.T) {
	r, a, b := testRegistry()
	*a, *b = 3, 4
	if got := r.SumInt("spritefs_test_ops_total"); got != 7 {
		t.Fatalf("SumInt = %d, want 7", got)
	}
	if got := r.SumInt("spritefs_test_ops_total", L("client", "1")); got != 4 {
		t.Fatalf("SumInt{client=1} = %d, want 4", got)
	}
	if got := r.SumInt("spritefs_test_ops_total", L("client", "9")); got != 0 {
		t.Fatalf("SumInt{client=9} = %d, want 0", got)
	}
	if got := r.SumInt("no_such_family"); got != 0 {
		t.Fatalf("SumInt(missing) = %d, want 0", got)
	}
}

func TestSnapshotDeterminismAndLiveness(t *testing.T) {
	r, a, b := testRegistry()
	*a, *b = 1, 2
	var s1, s2 strings.Builder
	if err := r.WritePrometheus(&s1); err != nil {
		t.Fatal(err)
	}
	if err := r.WritePrometheus(&s2); err != nil {
		t.Fatal(err)
	}
	if s1.String() != s2.String() {
		t.Fatalf("two snapshots of unchanged registry differ:\n%s\n---\n%s", s1.String(), s2.String())
	}
	if !strings.Contains(s1.String(), `spritefs_test_ops_total{client="0"} 1`) {
		t.Fatalf("missing instance line in:\n%s", s1.String())
	}
	*a = 10 // closures read live values: a later dump must see the change
	var s3 strings.Builder
	if err := r.WritePrometheus(&s3); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s3.String(), `spritefs_test_ops_total{client="0"} 10`) {
		t.Fatalf("snapshot did not pick up counter change:\n%s", s3.String())
	}
}

func TestRegistrationOrderDoesNotChangeDump(t *testing.T) {
	build := func(reverse bool) string {
		r := New()
		d := Desc{Name: "x_total", Unit: "ops", Help: "h", Kind: Counter}
		ids := []string{"0", "1", "2"}
		if reverse {
			ids = []string{"2", "1", "0"}
		}
		for _, id := range ids {
			id := id
			r.Int(d, Labels{L("i", id)}, func() int64 { return int64(len(id)) })
		}
		var b strings.Builder
		if err := r.WriteTSV(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if build(false) != build(true) {
		t.Fatal("dump depends on registration order")
	}
}

func TestConflictingRedescriptionPanics(t *testing.T) {
	r := New()
	d := Desc{Name: "y_total", Unit: "ops", Help: "h", Kind: Counter}
	r.Int(d, Labels{L("i", "0")}, func() int64 { return 0 })
	defer func() {
		if recover() == nil {
			t.Fatal("conflicting re-registration did not panic")
		}
	}()
	d.Help = "different"
	r.Int(d, Labels{L("i", "1")}, func() int64 { return 0 })
}

func TestDuplicateInstancePanics(t *testing.T) {
	r := New()
	d := Desc{Name: "z_total", Unit: "ops", Help: "h", Kind: Counter}
	r.Int(d, Labels{L("i", "0")}, func() int64 { return 0 })
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate instance did not panic")
		}
	}()
	r.Int(d, Labels{L("i", "0")}, func() int64 { return 0 })
}

func TestSummaryExpansion(t *testing.T) {
	r := New()
	var w stats.Welford
	w.Add(float64(2 * time.Second))
	w.Add(float64(4 * time.Second))
	r.HistSeconds(Desc{Name: "age_seconds", Help: "age"}, nil, func() stats.Welford { return w })
	pts := r.Snapshot()
	byName := map[string]Point{}
	for _, p := range pts {
		byName[p.Name] = p
	}
	if p := byName["age_seconds_count"]; !p.IsInt || p.Int != 2 {
		t.Fatalf("count = %+v", p)
	}
	if p := byName["age_seconds_mean"]; p.Float != 3 {
		t.Fatalf("mean = %v, want 3 (seconds)", p.Float)
	}
	if p := byName["age_seconds_max"]; p.Float != 4 {
		t.Fatalf("max = %v, want 4", p.Float)
	}
}

func TestMaxSeconds(t *testing.T) {
	r := New()
	d := Desc{Name: "worst_seconds", Help: "worst", Kind: Gauge}
	worst := [2]time.Duration{2 * time.Second, 5 * time.Second}
	r.SecondsVar(d, Labels{L("i", "0")}, &worst[0])
	r.SecondsVar(d, Labels{L("i", "1")}, &worst[1])
	if got := r.MaxSeconds("worst_seconds"); got != 5*time.Second {
		t.Fatalf("MaxSeconds = %v", got)
	}
	if got := r.SumSeconds("worst_seconds"); got != 7*time.Second {
		t.Fatalf("SumSeconds = %v", got)
	}
}

func TestScopedRegistry(t *testing.T) {
	r := New()
	var a, b int64 = 3, 5
	d := Desc{Name: "x_total", Unit: "ops", Help: "x.", Kind: Counter}
	r.Scoped(L("shard", "0")).Int(d, Labels{L("client", "1")}, func() int64 { return a })
	r.Scoped(L("shard", "1")).Int(d, Labels{L("client", "1")}, func() int64 { return b })
	if got := r.SumInt("x_total"); got != 8 {
		t.Fatalf("SumInt over scopes = %d, want 8", got)
	}
	if got := r.SumInt("x_total", L("shard", "1")); got != 5 {
		t.Fatalf("SumInt shard=1 = %d, want 5", got)
	}
	fams := r.Families()
	if len(fams) != 1 || fams[0].Instances() != 2 {
		t.Fatalf("want one family with two instances, got %d families", len(fams))
	}
	if keys := fams[0].LabelKeys(); len(keys) != 1 || keys[0] != "shard,client" {
		t.Fatalf("label keys = %v, want [shard,client]", keys)
	}
	// Same name+labels in the same scope is still a duplicate.
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate scoped instance did not panic")
		}
	}()
	r.Scoped(L("shard", "0")).Int(d, Labels{L("client", "1")}, func() int64 { return 0 })
}

// TestDuplicateAcrossScopes: an instance's identity is its scope plus its
// labels, whichever view registers it.
func TestDuplicateAcrossScopes(t *testing.T) {
	r := New()
	d := Desc{Name: "w_total", Unit: "ops", Help: "h", Kind: Counter}
	ls := Labels{L("client", "1")}
	r.Scoped(L("shard", "0")).Int(d, ls, func() int64 { return 0 })
	r.Scoped(L("shard", "1")).Int(d, ls, func() int64 { return 0 })
	r.Int(d, ls, func() int64 { return 0 })
	if got := r.Families()[0].Instances(); got != 3 {
		t.Fatalf("instances = %d, want 3", got)
	}
	defer func() {
		if got := recover(); got != `metrics: duplicate instance w_total{shard="1",client="1"}` {
			t.Fatalf("panic = %v, want the duplicate instance", got)
		}
	}()
	r.Scoped(L("shard", "1")).Int(d, ls, func() int64 { return 0 })
}

// testPop is a population over a slice of ids the test grows.
func testPop(key string, ids *[]int64) *Population {
	return &Population{Key: key, Len: func() int { return len(*ids) }, ID: func(i int) int64 { return (*ids)[i] }}
}

// TestColumnIsItsInstances: a column over a scoped population dumps,
// counts and sums exactly as its members registered one by one, the
// population label between the scope's and the inner labels.
func TestColumnIsItsInstances(t *testing.T) {
	ids := []int64{3, 10}
	vals := map[int64]int64{3: 30, 10: 100, 7: 70}
	d := Desc{Name: "v_total", Unit: "ops", Help: "h", Kind: Counter}
	col := New()
	col.Scoped(L("shard", "1")).IntColumn(d, testPop("client", &ids), Labels{L("scope", "all")},
		func(i int) int64 { return vals[ids[i]] })
	ids = append(ids[:1], 7, 10) // a member joins in the middle
	one := New()
	for _, id := range ids {
		id := id
		one.Scoped(L("shard", "1")).Int(d, Labels{L("client", strconv.FormatInt(id, 10)), L("scope", "all")},
			func() int64 { return vals[id] })
	}
	var got, want strings.Builder
	if err := col.WritePrometheus(&got); err != nil {
		t.Fatal(err)
	}
	if err := one.WritePrometheus(&want); err != nil {
		t.Fatal(err)
	}
	if got.String() != want.String() {
		t.Fatalf("column dump:\n%s\nwant:\n%s", got.String(), want.String())
	}
	if !strings.Contains(got.String(), `v_total{shard="1",client="7",scope="all"} 70`) {
		t.Fatalf("member 7 missing or misrendered:\n%s", got.String())
	}
	if g, w := col.Len(), 3; g != w {
		t.Errorf("Len = %d, want %d", g, w)
	}
	if keys := col.Families()[0].LabelKeys(); !slices.Equal(keys, []string{"shard,client,scope"}) {
		t.Errorf("label keys = %v", keys)
	}
	for _, sel := range [][]Label{{L("client", "7")}, {L("client", "10"), L("scope", "all")}, {L("scope", "all")}, {L("client", "07")}} {
		if g, w := col.SumInt("v_total", sel...), one.SumInt("v_total", sel...); g != w {
			t.Errorf("SumInt(%v) = %d, want %d", sel, g, w)
		}
	}
}

// TestColumnDuplicatePanics: the duplicate check is per column (family,
// scope, population key and inner labels), and a column member is as
// much an instance as a single registration.
func TestColumnDuplicatePanics(t *testing.T) {
	d := Desc{Name: "u_total", Unit: "ops", Help: "h", Kind: Counter}
	zero := func(int) int64 { return 0 }
	ids, none := []int64{4, 8}, []int64(nil)
	for _, tc := range []struct {
		name string
		reg  func(r *Registry)
		want string
	}{
		{"the same column twice", func(r *Registry) {
			r.IntColumn(d, testPop("client", &ids), Labels{L("scope", "all")}, zero)
			r.IntColumn(d, testPop("client", &ids), Labels{L("scope", "all")}, zero)
		}, `metrics: duplicate instance u_total{shard="0",client="4",scope="all"}`},
		{"an empty column twice", func(r *Registry) {
			r.IntColumn(d, testPop("client", &none), nil, zero)
			r.IntColumn(d, testPop("client", &none), nil, zero)
		}, `metrics: duplicate column u_total{shard="0",client=*}`},
		{"an instance that is a member", func(r *Registry) {
			r.IntColumn(d, testPop("client", &ids), Labels{L("scope", "all")}, zero)
			r.Int(d, Labels{L("client", "8"), L("scope", "all")}, func() int64 { return 0 })
		}, `metrics: duplicate instance u_total{shard="0",client="8",scope="all"}`},
		{"a column with a member that is an instance", func(r *Registry) {
			r.Int(d, Labels{L("client", "8")}, func() int64 { return 0 })
			r.IntColumn(d, testPop("client", &ids), nil, zero)
		}, `metrics: duplicate instance u_total{shard="0",client="8"}`},
		{"columns apart by inner labels", func(r *Registry) {
			r.IntColumn(d, testPop("client", &ids), Labels{L("scope", "all")}, zero)
			r.IntColumn(d, testPop("client", &ids), Labels{L("scope", "migrated")}, zero)
			r.IntColumn(d, testPop("client", &ids), nil, zero)
			r.Int(d, Labels{L("client", "5")}, func() int64 { return 0 })
		}, ""},
	} {
		got := func() (msg any) {
			defer func() { msg = recover() }()
			tc.reg(New().Scoped(L("shard", "0")))
			return nil
		}()
		if tc.want == "" && got != nil || tc.want != "" && got != tc.want {
			t.Errorf("%s: panic %v, want %q", tc.name, got, tc.want)
		}
	}
}
