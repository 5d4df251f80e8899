package metrics

import (
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
