// Package migrate models Sprite's process migration as the paper's
// workload uses it: pmake farms compilation (and simulation) jobs out to
// idle workstations. The pool answers which workstations are idle and
// which one to pick; the host-selection policy is biased toward reusing
// recently chosen hosts — the behaviour the paper credits for migrated
// processes' unexpectedly *good* cache hit ratios ("the policy used to
// select hosts for migration tends to reuse the same hosts over and over
// again, which may allow some reuse of data in the caches"). Which
// processes run where, and their eviction when a workstation's owner
// returns (dirty pages flushing to backing files — the paging-burst
// scenario of §5.3), belong to the workload engine.
package migrate
