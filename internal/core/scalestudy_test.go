package core

import (
	"testing"
	"time"
)

// The two topology studies' printed tables, pinned on a small community
// (80 clients; shards 1,2 / sites 1,2). Everything but the host
// measurements is deterministic — the event counts exactly so — so the
// tests overwrite Stats.Wall (which fixes ns/event too), Build and
// HeapBytes with fixed values, having checked that the sweep took them, and
// compare whole renderings byte for byte. The saturation tables are as
// pinned before the studies shared their sweep loop; the executor table is
// the one shape both studies now print.

const scaleTablesGolden = `Throughput vs shards: 80 clients, 0.10h horizon
shards  opens/s  recalls/h  maxnet%  maxdisk%  router%  remote-ops  rlat-ms
---------------------------------------------------------------------------
1          0.93       30.0     15.2       6.0     0.00           0     0.00
2          2.79       40.0     13.2       7.6     0.01          39    30.81

Executor wall-clock
shards  workers  rounds  null-adv  rescues  msgs  events  wall  ns/event  speedup  build  heap-MB  KB/client
------------------------------------------------------------------------------------------------------------
1             0       2         0        0     0    2279  30ms     13164    1.00x  0.25s      4.0      51.20
2             2     121       162        0    78    5345  20ms      3742    1.50x  0.50s      6.0      76.80

Wall-clock, ns/event, speedup, build (seconds to construct the engine),
heap-MB (heap in use when the run returned, before any collection) and
KB/client (that heap over the clients) are host measurements. speedup is
wall-clock relative to the first row (shards=1 unless -shards says
otherwise), so it mixes what sharding buys on any host - smaller per-shard
event heaps, wider channel-clock windows - with what the worker goroutines
add on a multi-core one; docs/PERFORMANCE.md measures the two apart.
`

const wanScaleTablesGolden = `Hierarchy vs flat: 80 clients over 2 segments, 0.10h horizon
sites  segs/site   hit%  opens/s  maxdisk%  remote-ops  xsite-ops  wan%  rlat-ms  wanlat-ms
-------------------------------------------------------------------------------------------
1              2  17.30     2.79       7.6          39          0  0.00    30.81       0.00
2              1  16.45     2.71       7.0          36         36  0.06   112.59     112.59

Executor wall-clock
sites  workers  rounds  null-adv  rescues  msgs  events  wall  ns/event  speedup  build  heap-MB  KB/client
-----------------------------------------------------------------------------------------------------------
1            2     121       162        0    78    5345  30ms      5613    1.00x  0.25s      4.0      51.20
2            2     112       150        0    72    5313  20ms      3764    1.50x  0.50s      6.0      76.80

Wall-clock, ns/event, speedup, build (seconds to construct the engine),
heap-MB (heap in use when the run returned, before any collection) and
KB/client (that heap over the clients) are host measurements; everything
else is deterministic. WAN links are also the executor's widest lookahead,
so deeper hierarchies usually need fewer synchronization rounds per
simulated hour.
`

// fixHostCost overwrites the two rows' host measurements with the values
// the goldens print, after checking that the sweep took them.
func fixHostCost(t *testing.T, a, b *SweepRun) {
	t.Helper()
	for _, r := range []*SweepRun{a, b} {
		if r.Stats.Wall <= 0 || r.Build <= 0 || r.HeapBytes == 0 {
			t.Fatalf("host measurements not taken: wall %v, build %v, heap %d B", r.Stats.Wall, r.Build, r.HeapBytes)
		}
	}
	a.Stats.Wall, a.Build, a.HeapBytes = 30*time.Millisecond, 250*time.Millisecond, 4<<20
	b.Stats.Wall, b.Build, b.HeapBytes = 20*time.Millisecond, 500*time.Millisecond, 6<<20
}

func TestScaleTablesPinned(t *testing.T) {
	r, err := RunScaleStudy(ScaleOptions{Clients: 80, Shards: []int{1, 2}, Hours: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	fixHostCost(t, &r.Rows[0].SweepRun, &r.Rows[1].SweepRun)
	if got := ScaleTables(r); got != scaleTablesGolden {
		t.Errorf("ScaleTables drifted:\n--- got ---\n%s--- want ---\n%s", got, scaleTablesGolden)
	}
}

func TestWANScaleTablesPinned(t *testing.T) {
	r, err := RunWANScaleStudy(WANScaleOptions{Clients: 80, Segments: 2, Sites: []int{1, 2}, Hours: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	fixHostCost(t, &r.Rows[0].SweepRun, &r.Rows[1].SweepRun)
	if got := WANScaleTables(r); got != wanScaleTablesGolden {
		t.Errorf("WANScaleTables drifted:\n--- got ---\n%s--- want ---\n%s", got, wanScaleTablesGolden)
	}
}

func TestWANScaleRejectsIndivisibleSites(t *testing.T) {
	if _, err := RunWANScaleStudy(WANScaleOptions{Clients: 80, Segments: 2, Sites: []int{3}, Hours: 0.01}); err == nil {
		t.Fatal("sites=3 over 2 segments: want an error")
	}
}
