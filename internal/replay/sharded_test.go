package replay

import (
	"testing"

	"spritefs/internal/trace"
)

// TestPartitionByClient pins the partition invariants: every record lands
// in exactly one shard, shard assignment depends only on the client id,
// and per-shard order is preserved.
func TestPartitionByClient(t *testing.T) {
	live := capturedTrace(t)
	parts := PartitionByClient(live.recs, 3)
	total := 0
	for s, part := range parts {
		total += len(part)
		var last trace.Record
		for i, r := range part {
			want := int(r.Client) % 3
			if want < 0 {
				want += 3
			}
			if want != s {
				t.Fatalf("client %d record in shard %d, want %d", r.Client, s, want)
			}
			if i > 0 && r.Time < last.Time {
				t.Fatalf("shard %d order broken at %d", s, i)
			}
			last = r
		}
	}
	if total != len(live.recs) {
		t.Errorf("partition lost records: %d of %d", total, len(live.recs))
	}
	one := PartitionByClient(live.recs, 1)
	if len(one[0]) != len(live.recs) {
		t.Errorf("1-shard partition dropped records")
	}
}

// TestShardedWorkerCountInvariance pins the driver's determinism: the
// aggregate sharded report is byte-identical whether one goroutine or
// eight replay the shards.
func TestShardedWorkerCountInvariance(t *testing.T) {
	live := capturedTrace(t)
	base := replayCfg("sharded")
	base.AsFastAsPossible = true

	render := func(results []*Result) string {
		s := ShardedTable(results)
		for _, r := range results {
			s += "\n" + r.Config.Name
		}
		return s
	}

	serial, err := RunSharded(live.recs, base, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := render(serial)
	for _, workers := range []int{4, 8} {
		par, err := RunSharded(live.recs, base, 4, workers)
		if err != nil {
			t.Fatal(err)
		}
		if got := render(par); got != want {
			t.Errorf("workers=%d sharded report differs\n--- workers=1 ---\n%s\n--- workers=%d ---\n%s",
				workers, want, workers, got)
		}
	}
}

// TestShardedConservesRecords checks nothing is lost end to end: the
// shards together apply every record a single replay applies.
func TestShardedConservesRecords(t *testing.T) {
	live := capturedTrace(t)
	base := replayCfg("conserve")
	base.AsFastAsPossible = true

	single, err := Run(base, trace.NewSliceStream(live.recs))
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := RunSharded(live.recs, base, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	var applied int64
	for _, r := range sharded {
		applied += r.Stats.Applied
	}
	if applied != single.Stats.Applied {
		t.Errorf("sharded replay applied %d records, single replay %d", applied, single.Stats.Applied)
	}
}
