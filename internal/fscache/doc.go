// Package fscache implements the Sprite client file cache measured in
// Section 5 of the paper: a block-oriented (4 KB) main-memory cache with
// LRU replacement, a 30-second delayed-write policy enforced by a 5-second
// cleaner daemon, write fetches for partial writes of non-resident blocks,
// fsync write-through, dirty-data recall for cache consistency, and a
// dynamically adjustable size negotiated with the virtual memory system.
//
// The cache is passive with respect to I/O: operations return descriptions
// of the server transfers they imply (miss bytes to fetch, dirty blocks to
// write back) and the caller — internal/client — performs the RPCs on the
// simulated network. Every counter the paper's Tables 4, 6, 8 and 9 need
// is maintained here.
//
// Each operation costs in proportion to the work it does, not to what the
// cache holds. The LRU list holds extents, not blocks: a node is a stretch
// of consecutive blocks of one file referenced at one instant — a
// program's pages read at boot, a scanned file — so a mostly clean cache
// pays a 4-byte index entry per block and 48 bytes per stretch. The same
// holds for dirty data: the blocks one write dirties at one instant are
// one dirty extent, with one set of write times kept apart (allocated only
// by a cache that is written to), and the cleaner turns an extent clean
// whole, where it sits, and hands it back as one Writeback run. Every
// change to the list is one of three: a block is lifted out of its stretch
// (splitting or shortening it), a block is placed at the front (extending
// the front stretch where that is exact), or blocks are dropped from one
// end of a stretch or with all of it — eviction a block at a time from the
// tail, a truncate past its cut. A read's blocks reach the front as runs:
// resident blocks of one stretch go in one step, the first placed and the
// rest extending the stretch it landed in; absent blocks are placed one at
// a time where each needs an eviction, and the ones that fit without one
// extend the stretch at once. So victims, ages and counts are the
// per-block ones: a run's Cleaned count and CleanAge samples are its
// blocks'. Replacement walks from the LRU tail for a clean victim, a node
// at a time, and stops within cleanScanDepth blocks; a cleaner tick
// returns at once while the cache's oldest dirty block cannot be due and
// otherwise scans every dirty file's nodes, which leaves that bound exact;
// Read and Write look the file's index up once per call, and a block
// leaving the cache reaches it through its node. None of this is
// visible from outside but as runs: reference_test.go drives the cache
// side by side with a map-and-slice reference that does everything the
// slow way, a block at a time, and requires identical results after every
// operation, each run expanded to the blocks it stands for.
package fscache
