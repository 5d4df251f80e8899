package fscache

import (
	"runtime"
	"testing"
	"time"
)

func BenchmarkReadHit(b *testing.B) {
	c := New(4096)
	c.Read(1, 0, 1<<20, 1<<20, Attr{}, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Read(1, 0, 1<<20, 1<<20, Attr{}, time.Duration(i))
	}
}

func BenchmarkReadMissCycle(b *testing.B) {
	// A working set twice the cache size: every pass misses.
	c := New(256)
	const fileSize = 512 * BlockSize
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		off := int64(i%512) * BlockSize
		c.Read(1, off, BlockSize, fileSize, Attr{}, time.Duration(i))
	}
}

// BenchmarkReadRunEvict reads a fresh 64-block file per op into a full
// cache, evicting 64 blocks. The cache is full, so fill places each block
// of the run after one eviction, and the block joins the run's node: one
// victim walk, admit and place per block. In a clean 4096- or 256-block
// cache the victims are the older file's blocks at the tail. In a
// 256-block cache whose 200 oldest blocks are dirty, the walk passes them
// to the clean blocks behind: the older run's 56, then the run's own
// first 8.
func BenchmarkReadRunEvict(b *testing.B) {
	const blocks = 64
	const size = blocks * BlockSize
	for _, bc := range []struct {
		name            string
		capacity, dirty int
	}{{"cache-4096", 4096, 0}, {"cache-256", 256, 0}, {"cache-256-dirty", 256, 200}} {
		b.Run(bc.name, func(b *testing.B) {
			c := New(bc.capacity)
			file := uint64(1)
			c.Write(file, 0, int64(bc.dirty)*BlockSize, 0, Attr{}, 0)
			for c.NumBlocks() < bc.capacity {
				file++
				c.Read(file, 0, size, size, Attr{}, time.Duration(file))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				file++
				c.Read(file, 0, size, size, Attr{}, time.Duration(file))
			}
		})
	}
}

func BenchmarkWriteAndClean(b *testing.B) {
	c := New(4096)
	now := time.Duration(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now += time.Second
		c.Write(uint64(i%16+1), 0, BlockSize, 0, Attr{}, now)
		if i%64 == 0 {
			c.Clean(now + WritebackDelay)
		}
	}
}

func BenchmarkEvictionPressure(b *testing.B) {
	c := New(128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Read(uint64(i), 0, BlockSize, BlockSize, Attr{}, time.Duration(i))
	}
}

// The benchmarks below cover what the layer drivers (bench/drivers) and the
// micros above never meet: a dirty run at the LRU tail, an idle cleaner
// tick, and a cache filling from cold.

func BenchmarkEvictDirtyTail(b *testing.B) {
	// Every block dirty: each miss walks the whole cache for a clean
	// victim, finds none and takes the tail.
	b.Run("all-dirty-64", func(b *testing.B) {
		c := New(64)
		for i := 0; i < 64; i++ {
			c.Write(1, int64(i)*BlockSize, BlockSize, 0, Attr{}, 0)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Write(1, int64(64+i%4096)*BlockSize, BlockSize, 0, Attr{}, time.Duration(i))
		}
	})
	// 600 dirty blocks older than the oldest clean one: the first
	// evictions take dirty tails under the depth cap, then every eviction
	// finds its clean victim behind cleanScanDepth-1 dirty blocks.
	b.Run("capped-4096", func(b *testing.B) {
		c := New(4096)
		c.Write(1, 0, 600*BlockSize, 0, Attr{}, 0)
		const fileSize = 8192 * BlockSize
		const clean = 4096 - 600
		c.Read(2, 0, clean*BlockSize, fileSize, Attr{}, 0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Read(2, int64((clean+i)%8192)*BlockSize, BlockSize, fileSize, Attr{}, time.Duration(i))
		}
	})
}

func BenchmarkCleanIdle(b *testing.B) {
	// A cleaner tick over 200 dirty files of four blocks, none of them due.
	c := New(4096)
	for f := uint64(1); f <= 200; f++ {
		c.Write(f, 0, 4*BlockSize, 0, Attr{}, time.Duration(f))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if wbs := c.Clean(WritebackDelay / 2); len(wbs) != 0 {
			b.Fatalf("idle tick flushed %d blocks", len(wbs))
		}
	}
}

// coldFill fills fresh caches to 4096 blocks n times, one block per call as
// a client does it and reading only, and returns the last one with what the
// fills allocated per resident block.
func coldFill(n int) (c *Cache, bytesPerBlock float64) {
	const blocks = 4096
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		c = New(blocks)
		for j := int64(0); j < blocks; j++ {
			c.Read(1, j*BlockSize, BlockSize, blocks*BlockSize, Attr{}, 0)
		}
	}
	runtime.ReadMemStats(&after)
	return c, float64(after.TotalAlloc-before.TotalAlloc) / float64(n*blocks)
}

func BenchmarkColdFill(b *testing.B) {
	_, bytesPerBlock := coldFill(b.N)
	b.ReportMetric(bytesPerBlock, "B/block")
}
