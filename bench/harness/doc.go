// Package harness holds what every spritebench workload needs and nothing
// that knows a workload: process measurements (CPU, peak memory in use, live heap),
// order statistics, in-memory spans with self time, folding a CPU profile
// into a per-module table, the result/spec file shapes, and the comparison
// of two result files against the bounds BENCHMARK.json fixes.
//
// The harness sits outside the program under test. Nothing here imports
// spritefs/internal; spans are recorded around the calls the workloads
// make into a layer, never inside one.
package harness
