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
// pays a 4-byte index entry per block and 48 bytes per stretch, and the
// write times only a dirty block needs live apart, allocated only by a
// cache that is written to. A touch or a write inside a stretch splits it,
// and eviction shortens the tail stretch a block at a time, so victims,
// ages and counts are the per-block ones. Replacement's search for a clean
// victim remembers the dirty run at the LRU tail it has already walked
// past and resumes behind it; a cleaner tick returns at once while the
// oldest dirty block cannot be due and otherwise scans only the files
// whose oldest dirty block can be; Read and Write look the file's index up
// once per call. None of this is visible from outside: reference_test.go
// drives the cache side by side with a map-and-slice reference that does
// everything the slow way, a block at a time, and requires identical
// results after every operation.
package fscache
