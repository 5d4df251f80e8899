package core

import (
	"reflect"
	"testing"
	"time"
)

// The topology sweep's printed tables, pinned on a small community (80
// clients) along each axis: shards 1,2 at one site, and sites 1,2 over two
// shards. Everything but the host measurements is deterministic — the event
// counts exactly so — so the test overwrites Stats.Wall (which fixes
// ns/event too), Stats.Busy, Stats.Critical, Stats.Serial, Build and
// HeapBytes with fixed values, having checked that the sweep took them, and
// compares whole renderings byte for byte. The two-site row follows the
// artifact placement: its remote mix moves whenever a key's home does.

var (
	shardsSweep = ScaleOptions{Clients: 80, Shards: []int{1, 2}, Hours: 0.1}
	sitesSweep  = ScaleOptions{Clients: 80, Shards: []int{2}, Sites: []int{1, 2}, Hours: 0.1}
)

const shardsSweepGolden = `Throughput vs shards and sites: 80 clients, 0.10h horizon
shards  sites   hit%  opens/s  recalls/h  maxnet%  maxdisk%  router%  wan%  remote-ops  xsite-ops  rlat-ms  wanlat-ms
---------------------------------------------------------------------------------------------------------------------
1           1   7.14     0.93       30.0     15.2       6.0     0.00  0.00           0          0     0.00       0.00
2           1  14.82     2.67      560.0     13.8       9.5     0.01  0.00          39          0    30.17       0.00

Executor wall-clock
shards  sites  workers  rounds  null-adv  rescues  msgs  events  wall  ns/event  speedup  busy/wall  busy/critical  serial/wall  build  heap-MB  KB/client
----------------------------------------------------------------------------------------------------------------------------------------------------------
1           1        0       2         0        0     0    2279  30ms     13164    1.00x       0.90           1.00         0.10  0.25s      4.0      51.20
2           1        2     121       162        0    78    5268  20ms      3797    1.50x       1.50           1.50         0.25  0.50s      6.0      76.80

Wall-clock, ns/event, speedup, build (seconds to construct the engine),
heap-MB (heap in use when the run returned, before any collection) and
KB/client (that heap over the clients) are host measurements; everything
else is deterministic. speedup is wall-clock relative to the first row, so
it mixes what sharding buys on any host - smaller per-shard event heaps,
wider channel-clock windows - with what the worker goroutines add on a
multi-core one; docs/PERFORMANCE.md measures the two apart. WAN links are
the executor's widest lookahead, so more sites usually need fewer
synchronization rounds per simulated hour.
busy/wall and busy/critical are host measurements too: busy is the shard
jobs' summed wall-clock and critical the sum of each round's longest job,
so busy/wall is the parallelism the workers achieved and busy/critical
the most any number of workers could reach on these rounds.
serial/wall is the share of the wall-clock the calling goroutine spent
between rounds (floors, bounds, exchange), which no worker count shrinks.
`

const sitesSweepGolden = `Throughput vs shards and sites: 80 clients, 0.10h horizon
shards  sites   hit%  opens/s  recalls/h  maxnet%  maxdisk%  router%  wan%  remote-ops  xsite-ops  rlat-ms  wanlat-ms
---------------------------------------------------------------------------------------------------------------------
2           1  14.82     2.67      560.0     13.8       9.5     0.01  0.00          39          0    30.17       0.00
2           2  14.50     2.85      560.0     13.8       9.5     0.06  0.06          40         40   103.23     103.23

Executor wall-clock
shards  sites  workers  rounds  null-adv  rescues  msgs  events  wall  ns/event  speedup  busy/wall  busy/critical  serial/wall  build  heap-MB  KB/client
----------------------------------------------------------------------------------------------------------------------------------------------------------
2           1        2     121       162        0    78    5268  30ms      5695    1.00x       0.90           1.00         0.10  0.25s      4.0      51.20
2           2        2     122       162        0    80    5594  20ms      3575    1.50x       1.50           1.50         0.25  0.50s      6.0      76.80

Wall-clock, ns/event, speedup, build (seconds to construct the engine),
heap-MB (heap in use when the run returned, before any collection) and
KB/client (that heap over the clients) are host measurements; everything
else is deterministic. speedup is wall-clock relative to the first row, so
it mixes what sharding buys on any host - smaller per-shard event heaps,
wider channel-clock windows - with what the worker goroutines add on a
multi-core one; docs/PERFORMANCE.md measures the two apart. WAN links are
the executor's widest lookahead, so more sites usually need fewer
synchronization rounds per simulated hour.
busy/wall and busy/critical are host measurements too: busy is the shard
jobs' summed wall-clock and critical the sum of each round's longest job,
so busy/wall is the parallelism the workers achieved and busy/critical
the most any number of workers could reach on these rounds.
serial/wall is the share of the wall-clock the calling goroutine spent
between rounds (floors, bounds, exchange), which no worker count shrinks.
`

// fixHostCost overwrites the two rows' host measurements with the values
// the goldens print, after checking that the sweep took them.
func fixHostCost(t *testing.T, a, b *ScaleRow) {
	t.Helper()
	for _, r := range []*ScaleRow{a, b} {
		st := r.Stats
		if st.Wall <= 0 || st.Busy <= 0 || st.Critical <= 0 || st.Serial <= 0 || r.Build <= 0 || r.HeapBytes == 0 {
			t.Fatalf("host measurements not taken: wall %v, busy %v, critical %v, serial %v, build %v, heap %d B",
				st.Wall, st.Busy, st.Critical, st.Serial, r.Build, r.HeapBytes)
		}
	}
	a.Stats.Wall, a.Stats.Busy, a.Stats.Critical = 30*time.Millisecond, 27*time.Millisecond, 27*time.Millisecond
	b.Stats.Wall, b.Stats.Busy, b.Stats.Critical = 20*time.Millisecond, 30*time.Millisecond, 20*time.Millisecond
	a.Stats.Serial, b.Stats.Serial = 3*time.Millisecond, 5*time.Millisecond
	a.Build, a.HeapBytes = 250*time.Millisecond, 4<<20
	b.Build, b.HeapBytes = 500*time.Millisecond, 6<<20
}

func TestScaleTablesPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts ScaleOptions
		want string
	}{
		{"shards", shardsSweep, shardsSweepGolden},
		{"sites", sitesSweep, sitesSweepGolden},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := RunScaleStudy(tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			fixHostCost(t, &r.Rows[0], &r.Rows[1])
			if got := ScaleTables(r); got != tc.want {
				t.Errorf("ScaleTables drifted:\n--- got ---\n%s--- want ---\n%s", got, tc.want)
			}
		})
	}
}

// TestShardsAndSitesSweepsAgree: a flat topology is one site, so the
// (2 shards, 1 site) configuration reads the same whether a shards sweep or
// a sites sweep ran it.
func TestShardsAndSitesSweepsAgree(t *testing.T) {
	byShards, err := RunScaleStudy(shardsSweep)
	if err != nil {
		t.Fatal(err)
	}
	bySites, err := RunScaleStudy(sitesSweep)
	if err != nil {
		t.Fatal(err)
	}
	a, b := byShards.Rows[1], bySites.Rows[0]
	if a.Shards != 2 || a.Sites != 1 || b.Shards != 2 || b.Sites != 1 {
		t.Fatalf("rows (%d shards, %d sites) and (%d shards, %d sites), want (2, 1) twice", a.Shards, a.Sites, b.Shards, b.Sites)
	}
	if !reflect.DeepEqual(a.Report, b.Report) {
		t.Errorf("reports differ:\nshards sweep: %+v\nsites sweep:  %+v", a.Report, b.Report)
	}
	if a.Stats.Exec != b.Stats.Exec || a.Stats.Events != b.Stats.Events {
		t.Errorf("executor differs: shards sweep %+v, %d events; sites sweep %+v, %d events",
			a.Stats.Exec, a.Stats.Events, b.Stats.Exec, b.Stats.Events)
	}
}

// TestScaleRejectsIndivisibleSites: a site count that does not divide a
// shard count is an error before any configuration runs.
func TestScaleRejectsIndivisibleSites(t *testing.T) {
	if _, err := RunScaleStudy(ScaleOptions{Clients: 80, Shards: []int{2}, Sites: []int{3}, Hours: 0.01}); err == nil {
		t.Fatal("sites=3 over 2 shards: want an error")
	}
}
