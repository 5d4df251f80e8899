// Package workloads defines spritebench's five workloads and the two kinds
// of run every one of them has: the untraced run (set-up and measured phase
// three times over, the fastest pass's timings) that yields the end-to-end
// metrics, and the traced run (spans around each call into a layer, a CPU
// profile folded per module, the layer drivers) that yields the per-layer
// metrics.
//
// A workload reaches the program only through exported functions of
// spritefs/internal — the entry points the commands themselves use — and
// receives nothing but inputs generated from the seed. Sizes scale with the
// requested measuring time; populations never do. See ../README.md for the
// metric definitions and for how the layer metrics are expected to move the
// end-to-end ones.
package workloads
