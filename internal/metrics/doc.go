// Package metrics is the reproduction's central, self-describing metric
// registry — the single place where every kernel counter the study reads
// is named, typed, unit-tagged and documented.
//
// The paper's instrument was "approximately 50 counters" added to the
// Sprite kernels, read periodically by a user-level process and
// post-processed into the Section 5 tables. This package makes that
// instrument explicit and machine-readable: each subsystem (fscache,
// server, client, netsim, faults, replay, consistency) registers views
// over its counters at construction time, with a name, a unit and a help
// string, and everything downstream — the cluster report tables, the
// Prometheus/TSV/JSONL dumps, the generated docs/METRICS.md — is a
// projection of this one store.
//
// Registered metrics are pointers to the owning subsystem's counter
// fields (or, for values that must be computed, closures over them), read
// only at snapshot time, so registration adds no bookkeeping to the hot
// paths and the registry can never disagree with the authoritative
// counters. Like components register as a population (a cluster's
// workstations, its servers: a label key, a live length and each index's
// id) once per family: a column is one family member over the population,
// with fixed inner labels and a read func(i int) T, and member i renders
// as the scope labels, key="id", the inner labels, byte for byte what one
// instance per member would have rendered. A single instance is the column
// of one member with no population label. Member label sets are rendered
// only at export, so the registry keeps about 22 bytes per workstation at
// 5 000 workstations in 16 shard scopes (TestRegistryBytesPerClient holds
// it to 100), against about 92 per instance registered one at a time
// (TestRegistryBytesPerInstance, also held to 100). Members are known by
// id, not position, so a population may grow by inserting in the middle.
// Exports stream: they walk the families in name order and hold one
// family's instances at a time, its members' labels rendered into one
// reused arena, and they write their lines from one reused buffer in
// chunks of 64 KB (TestExportBytesPerPoint holds a TSV export to 65 B and
// 0.8 allocations a point). Only Snapshot, which collects that walk into
// a []Point, holds every point at once. Snapshots and exports are
// deterministic: metric instances are emitted sorted by (name, labels),
// integers stay exact, and floats render with strconv's shortest
// round-trip form, so identical seeds produce byte-identical dumps
// regardless of registration order or sweep worker count.
//
// The Sampler turns the registry into time series: driven by the
// simulation clock at a configurable interval, it appends one row of
// selected metric values per tick and keeps every row (memory grows with
// horizon ÷ interval), exportable as TSV, JSONL, or Prometheus text with
// timestamps. It is the cluster's one periodic reader of counters: Table
// 4's cache sizes are a projection of its rows, and the same series
// answer interval-contrast questions (Table 2's 10-second versus
// 10-minute activity) instead of only end-of-run totals.
package metrics
