// Package spritefs reproduces "Measurements of a Distributed File System"
// (Baker, Hartman, Kupfer, Shirriff, Ousterhout; SOSP 1991) as a runnable
// system: a deterministic discrete-event simulation of the measured Sprite
// cluster — forty diskless workstations with dynamic block caches and
// virtual memory, four file servers, a shared Ethernet, process migration,
// and a synthetic user community standing in for the 1991 Berkeley
// workload — plus the kernel tracing, counter collection, analysis and
// consistency-simulation machinery that regenerates every table and figure
// in the paper's evaluation.
//
// Layout:
//
//	internal/core         the study façade: RunTrace / RunCounterStudy / RunClaims / reports
//	internal/cluster      the assembled system (clients+servers+net+workload)
//	internal/client       the Sprite client kernel (FS call layer)
//	internal/fscache      the 4 KB block cache with 30 s delayed writes
//	internal/vm           virtual memory and FS/VM page trading
//	internal/server       file servers and consistency state
//	internal/netsim       the 10 Mbit/s Ethernet + RPC model
//	internal/workload     the parameterized user community and its
//	                      pmake-style process migration
//	internal/trace        trace format, codecs, k-way merge, the per-file
//	                      open table the server and analyzers share
//	internal/analysis     the Section 4 table/figure analyzers
//	internal/consistency  the Section 5.5-5.6 simulators
//	internal/sim          discrete-event engine + deterministic RNG
//	internal/stats        histograms, CDFs, Welford, interval stats
//
// cmd/experiments runs the full-scale campaign behind EXPERIMENTS.md, and
// its -exp claims checks the paper's arguments, each with a verdict.
package spritefs
