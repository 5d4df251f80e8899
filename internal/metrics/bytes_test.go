package metrics

import (
	"io"
	"runtime"
	"strconv"
	"testing"
	"time"

	"spritefs/internal/stats"
)

// syntheticClient holds the counters one workstation registers: the
// shapes client.RegisterMetrics makes (its cache, VM and recovery
// counters), about seventy instances.
type syntheticClient struct {
	ops     [2][11]int64
	cleaned [6]int64
	ages    [7]stats.Welford
	paged   [2][4]int64
	ints    [22]int64
	dur     time.Duration
}

func (c *syntheticClient) size() int64 { return c.ints[0] }

// register registers c as client id through r, the way the scale-out
// topology does: every instance carries client="id", the per-scope and
// per-reason families one more label.
func (c *syntheticClient) register(r *Registry, id int) {
	ls := Labels{L("client", strconv.Itoa(id))}
	with := func(key, value string) Labels { return append(append(Labels{}, ls...), L(key, value)) }
	for s, scope := range []string{"all", "migrated"} {
		sls := with("scope", scope)
		for i := range c.ops[s] {
			r.IntVar(Desc{Name: "syn_ops" + strconv.Itoa(i) + "_total", Unit: "ops", Help: "h", Kind: Counter}, sls, &c.ops[s][i])
		}
	}
	for i, reason := range []string{"delay", "fsync", "recall", "vm", "evict", "recover"} {
		rls := with("reason", reason)
		r.IntVar(Desc{Name: "syn_cleaned_total", Unit: "blocks", Help: "h", Kind: Counter}, rls, &c.cleaned[i])
		r.HistSecondsVar(Desc{Name: "syn_clean_age_seconds", Help: "h"}, rls, &c.ages[i])
	}
	for i, class := range []string{"code", "init-data", "heap", "stack"} {
		cls := with("class", class)
		r.IntVar(Desc{Name: "syn_paged_in_bytes_total", Unit: "bytes", Help: "h", Kind: Counter}, cls, &c.paged[0][i])
		r.IntVar(Desc{Name: "syn_paged_out_bytes_total", Unit: "bytes", Help: "h", Kind: Counter}, cls, &c.paged[1][i])
	}
	for i := range c.ints {
		r.IntVar(Desc{Name: "syn_count" + strconv.Itoa(i) + "_total", Unit: "ops", Help: "h", Kind: Counter}, ls, &c.ints[i])
	}
	r.HistSecondsVar(Desc{Name: "syn_replacement_age_seconds", Help: "h"}, ls, &c.ages[6])
	r.SecondsVar(Desc{Name: "syn_max_age_seconds", Help: "h", Kind: Gauge}, ls, &c.dur)
	r.Int(Desc{Name: "syn_size_bytes", Unit: "bytes", Help: "h", Kind: Gauge}, ls, c.size)
}

// registerColumns registers the workstations cs, whose ids are ids, as one
// column per counter over their population, the way
// cluster.RegisterComponents registers a shard's workstations.
func registerColumns(r *Registry, cs []*syntheticClient, ids []int64) {
	p := &Population{Key: "client", Len: func() int { return len(cs) }, ID: func(i int) int64 { return ids[i] }}
	for s, scope := range []string{"all", "migrated"} {
		inner := Labels{L("scope", scope)}
		for j := range cs[0].ops[s] {
			r.IntColumn(Desc{Name: "syn_ops" + strconv.Itoa(j) + "_total", Unit: "ops", Help: "h", Kind: Counter}, p, inner,
				func(i int) int64 { return cs[i].ops[s][j] })
		}
	}
	for j, reason := range []string{"delay", "fsync", "recall", "vm", "evict", "recover"} {
		inner := Labels{L("reason", reason)}
		r.IntColumn(Desc{Name: "syn_cleaned_total", Unit: "blocks", Help: "h", Kind: Counter}, p, inner,
			func(i int) int64 { return cs[i].cleaned[j] })
		r.HistSecondsColumn(Desc{Name: "syn_clean_age_seconds", Help: "h"}, p, inner,
			func(i int) stats.Welford { return cs[i].ages[j] })
	}
	for j, class := range []string{"code", "init-data", "heap", "stack"} {
		inner := Labels{L("class", class)}
		r.IntColumn(Desc{Name: "syn_paged_in_bytes_total", Unit: "bytes", Help: "h", Kind: Counter}, p, inner,
			func(i int) int64 { return cs[i].paged[0][j] })
		r.IntColumn(Desc{Name: "syn_paged_out_bytes_total", Unit: "bytes", Help: "h", Kind: Counter}, p, inner,
			func(i int) int64 { return cs[i].paged[1][j] })
	}
	for j := range cs[0].ints {
		r.IntColumn(Desc{Name: "syn_count" + strconv.Itoa(j) + "_total", Unit: "ops", Help: "h", Kind: Counter}, p, nil,
			func(i int) int64 { return cs[i].ints[j] })
	}
	r.HistSecondsColumn(Desc{Name: "syn_replacement_age_seconds", Help: "h"}, p, nil,
		func(i int) stats.Welford { return cs[i].ages[6] })
	r.SecondsColumn(Desc{Name: "syn_max_age_seconds", Help: "h", Kind: Gauge}, p, nil,
		func(i int) time.Duration { return cs[i].dur })
	r.IntColumn(Desc{Name: "syn_size_bytes", Unit: "bytes", Help: "h", Kind: Gauge}, p, nil,
		func(i int) int64 { return cs[i].size() })
}

// TestRegistryBytesPerInstance: the registry's own live heap, per
// registered instance, over 5 000 workstations registered through 16 shard
// scopes. The counters are allocated before the first reading; what is
// measured is everything the registry keeps: instances, families, interned
// label sets and the duplicate check.
func TestRegistryBytesPerInstance(t *testing.T) {
	const clients, limit = 5000, 100
	cs := make([]syntheticClient, clients)
	shards := make([]*Registry, 16)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r := New()
	for i := range shards {
		shards[i] = r.Scoped(L("shard", strconv.Itoa(i)))
	}
	for i := range cs {
		cs[i].register(shards[i%len(shards)], i)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	n := r.Len()
	per := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(n)
	t.Logf("%d instances over %d clients: %.1f B of registry heap per instance", n, clients, per)
	if per > limit {
		t.Errorf("the registry keeps %.1f B per instance, want at most %d", per, limit)
	}
	runtime.KeepAlive(cs)
	runtime.KeepAlive(r)
}

// TestRegistryBytesPerClient: the same 5 000 workstations registered as
// population columns, one population per shard scope, keep the registry's
// live heap within 100 B per workstation: its columns, families and label
// sets do not grow with the population. The counters and each shard's
// slices of workstations and ids are allocated before the first reading.
// Registered one instance at a time, as TestRegistryBytesPerInstance does,
// a workstation costs its ~67 instances about 80 B each.
func TestRegistryBytesPerClient(t *testing.T) {
	const clients, shards, limit = 5000, 16, 100
	cs := make([]syntheticClient, clients)
	members := make([][]*syntheticClient, shards)
	ids := make([][]int64, shards)
	for i := range cs {
		members[i%shards] = append(members[i%shards], &cs[i])
		ids[i%shards] = append(ids[i%shards], int64(i))
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	r := New()
	for s := range members {
		registerColumns(r.Scoped(L("shard", strconv.Itoa(s))), members[s], ids[s])
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	per := float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / clients
	t.Logf("%d instances over %d clients: %.1f B of registry heap per client", r.Len(), clients, per)
	if n := r.Len(); n != 67*clients {
		t.Errorf("%d instances, want %d", n, 67*clients)
	}
	if per > limit {
		t.Errorf("the registry keeps %.1f B per client, want at most %d", per, limit)
	}
	runtime.KeepAlive(cs)
	runtime.KeepAlive(r)
}

// TestExportBytesPerPoint: a full TSV export of 5 000 workstations
// registered as columns in 16 shard scopes allocates at most 65 B and 0.8
// allocations per exported point: it holds one family's instances at a
// time, renders their labels into one reused arena and writes its lines
// from one reused buffer (the Snapshot-then-Fprintf exporters allocated
// 660 B and 9.1 times a point). Each workstation exports 90 points: its
// 60 counters and gauges, six summaries without samples (4 points each)
// and one with samples (6 points). An export whose writer fails stops at
// that failure, so it stays under the same gate.
func TestExportBytesPerPoint(t *testing.T) {
	const clients, shards = 5000, 16
	const bytesLimit, allocsLimit = 65, 0.8
	cs := make([]syntheticClient, clients)
	members := make([][]*syntheticClient, shards)
	ids := make([][]int64, shards)
	for i := range cs {
		c := &cs[i]
		for s := range c.ops {
			for j := range c.ops[s] {
				c.ops[s][j] = int64(i*31 + s*7 + j)
			}
		}
		for j := range c.ints {
			c.ints[j] = int64(i * (j + 1))
		}
		c.ages[6].Add(float64(i+1) * 1e6)
		c.ages[6].Add(float64(i+3) * 1e6)
		c.dur = time.Duration(i) * time.Millisecond
		members[i%shards] = append(members[i%shards], c)
		ids[i%shards] = append(ids[i%shards], int64(i))
	}
	r := New()
	for s := range members {
		registerColumns(r.Scoped(L("shard", strconv.Itoa(s))), members[s], ids[s])
	}
	points := len(r.Snapshot())
	if points != 90*clients {
		t.Fatalf("%d points, want %d", points, 90*clients)
	}
	for _, out := range []struct {
		what string
		w    io.Writer
		want error
	}{{"io.Discard", io.Discard, nil}, {"a writer that fails at once", &failingWriter{}, errWriteFailed}} {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if err := r.WriteTSV(out.w); err != out.want {
			t.Fatalf("export to %s returned %v, want %v", out.what, err, out.want)
		}
		runtime.ReadMemStats(&after)
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / float64(points)
		allocs := float64(after.Mallocs-before.Mallocs) / float64(points)
		t.Logf("%d points to %s: %.1f B and %.2f allocations per point", points, out.what, bytes, allocs)
		if bytes > bytesLimit || allocs > allocsLimit {
			t.Errorf("a TSV export to %s allocates %.1f B and %.2f allocations per point, want at most %d B and %.1f",
				out.what, bytes, allocs, bytesLimit, allocsLimit)
		}
	}
	runtime.KeepAlive(cs)
}
