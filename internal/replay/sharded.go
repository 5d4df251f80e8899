// Shard-aware sweep driver: replay one trace as a sharded community.
//
// Where RunSweep holds the trace fixed and varies the configuration,
// RunSharded holds the configuration fixed and varies the topology: the
// trace's clients are partitioned across shards and each shard replays its
// sub-trace against a hermetic engine. Results are merged in shard order,
// so the aggregate table is byte-identical for any worker count.
//
// Hermetic is the difference from internal/scale, which routes
// cross-segment traffic between its shards: here nothing crosses a
// partition. A file used by clients of two partitions is bootstrapped once
// in each, and no consistency action between those clients — a recall of
// the other's dirty data, a concurrent-write-sharing disable — is
// replayed. On the repo's own golden trace (20 317 opens) the unsharded
// replay sees 56 write-sharing events and 212 recalls, the three-shard one
// 5 and 94: a sharded replay measures each partition's cache and wire
// load, not the community's consistency traffic.
package replay

import (
	"fmt"

	"spritefs/internal/stats"
	"spritefs/internal/trace"
)

// PartitionByClient splits a trace into shard sub-traces by client id
// (client mod shards). Each sub-trace preserves record order, so every
// shard sees a time-ordered subsequence of the original reference string.
func PartitionByClient(recs []trace.Record, shards int) [][]trace.Record {
	if shards < 1 {
		panic(fmt.Sprintf("replay: PartitionByClient with %d shards", shards))
	}
	parts := make([][]trace.Record, shards)
	for _, r := range recs {
		s := int(r.Client) % shards
		if s < 0 {
			s += shards
		}
		parts[s] = append(parts[s], r)
	}
	return parts
}

// RunSharded partitions recs by client across shards and replays each
// partition under base (hermetically, in parallel over workers). The
// result slice is indexed by shard — independent of completion order.
func RunSharded(recs []trace.Record, base Config, shards, workers int) ([]*Result, error) {
	parts := PartitionByClient(recs, shards)
	cfgs := make([]Config, shards)
	for i := range cfgs {
		cfgs[i] = base
		name := base.Name
		if name == "" {
			name = "base"
		}
		cfgs[i].Name = fmt.Sprintf("%s/shard%d", name, i)
	}

	results, i, err := runAll(cfgs, func(i int) []trace.Record { return parts[i] }, workers, nil)
	if err != nil {
		return nil, fmt.Errorf("replay shard %d: %w", i, err)
	}
	return results, nil
}

// shardedNote is ShardedTable's footnote: what the hermetic partitions
// drop (see the file comment).
const shardedNote = "note: shards replay hermetically - no recall or write-sharing action between clients of different shards is replayed, so cws% and recall% are not comparable with an unsharded replay's Table 10.\n"

// ShardedTable renders a sharded replay one row per shard plus a totals
// row, mirroring the scale engine's report shape: record and open counts
// per shard, cache-effectiveness ratios, and wire traffic.
func ShardedTable(results []*Result) string {
	t := stats.NewTable("Sharded trace replay",
		"shard", "records", "opens", "miss%", "wb%", "netMB", "cws%", "recall%")
	var recs, opens int64
	var netBytes int64
	for i, r := range results {
		t6 := r.Report.Table6
		t10 := r.Report.Table10
		t.AddRow(
			fmt.Sprintf("%d", i),
			fmt.Sprintf("%d", r.Stats.Applied),
			fmt.Sprintf("%d", t10.FileOpens),
			fmt.Sprintf("%.1f", t6.All.ReadMissPct),
			fmt.Sprintf("%.1f", t6.All.WritebackPct),
			fmt.Sprintf("%.1f", float64(r.Report.Table7.TotalBytes)/(1<<20)),
			fmt.Sprintf("%.1f", t10.CWSPct),
			fmt.Sprintf("%.1f", t10.RecallPct))
		recs += r.Stats.Applied
		opens += t10.FileOpens
		netBytes += r.Report.Table7.TotalBytes
	}
	t.AddRow("all",
		fmt.Sprintf("%d", recs),
		fmt.Sprintf("%d", opens),
		"", "",
		fmt.Sprintf("%.1f", float64(netBytes)/(1<<20)),
		"", "")
	return t.String() + shardedNote
}
