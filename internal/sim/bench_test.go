package sim

import (
	"fmt"
	"testing"
	"time"
)

func BenchmarkEventThroughput(b *testing.B) {
	s := New(1)
	var next func()
	count := 0
	next = func() {
		count++
		if count < b.N {
			s.After(time.Microsecond, next)
		}
	}
	b.ResetTimer()
	s.After(0, next)
	s.Run()
}

func BenchmarkHeapChurn(b *testing.B) {
	// Many pending events at once: heap operations dominate. A 10k
	// backlog parked in the far future keeps every push/pop working
	// against a deep heap; the churn events themselves are fully
	// drained, so the loop measures steady-state churn rather than
	// unbounded heap growth (each iteration used to leave its event
	// behind whenever an older one fired in its place).
	s := New(1)
	for i := 0; i < 10000; i++ {
		s.At(time.Duration(i)*time.Second+10000*time.Hour, func() {})
	}
	fired := 0
	fn := func() { fired++ }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(time.Duration(i%1000)*time.Millisecond, fn)
		s.Step()
	}
	for fired < b.N {
		s.Step()
	}
	b.StopTimer()
	if got := s.Pending(); got != 10000 {
		b.Fatalf("pending = %d after drain, want the 10000-event backlog only", got)
	}
}

// BenchmarkSimCore exercises the scheduler's steady-state shapes: a deep
// one-shot heap, recurring timers (a handful with coprime periods, then a
// shard's daemons at three populations), and the two kinds mixed (a shard's
// real populations, then one chain beside 32 tickers). All must run
// allocation-free.
func BenchmarkSimCore(b *testing.B) {
	b.Run("oneshot", func(b *testing.B) {
		s := New(1)
		resident := 1024
		if resident > b.N {
			resident = b.N
		}
		scheduled, fired := resident, 0
		var fn func()
		fn = func() {
			fired++
			if scheduled < b.N {
				scheduled++
				s.After(time.Millisecond, fn)
			}
		}
		for i := 0; i < resident; i++ {
			s.After(time.Duration(i)*time.Microsecond, fn)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for fired < scheduled {
			s.Step()
		}
	})
	b.Run("tickers", func(b *testing.B) {
		s := New(2)
		fired := 0
		tks := make([]*Ticker, 64)
		for i := range tks {
			period := time.Duration(100+7*i) * time.Millisecond
			tks[i] = s.Every(time.Duration(i)*time.Millisecond, period, func() { fired++ })
		}
		b.ReportAllocs()
		b.ResetTimer()
		for fired < b.N {
			s.Step()
		}
		b.StopTimer()
		for _, tk := range tks {
			tk.Stop()
		}
	})
	// One shard's daemons at a real population: per client a 5 s cache
	// cleaner starting at ID%5 s and a 3 min system process starting at
	// ID%180 s, so hundreds of tickers share every instant. ns/op is the
	// cost of one firing.
	for _, clients := range []int{40, 1250, 5000} {
		b.Run(fmt.Sprintf("daemons/clients=%d", clients), func(b *testing.B) {
			s := New(4)
			fired := 0
			fn := func() { fired++ }
			for i := 0; i < clients; i++ {
				s.Every(time.Duration(i%5)*time.Second, 5*time.Second, fn)
				s.Every(time.Duration(i%180)*time.Second, 3*time.Minute, fn)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for fired < b.N {
				s.Step()
			}
		})
	}
	// What a running cluster's scheduler actually holds: a few self-re-arming
	// one-shot chains (user sessions between operations) beside the larger,
	// colder population of 3 min system-process tickers starting at ID%180 s —
	// 49 in a 40-workstation paper_eval cluster, 322 and 1 259 in a scale_5k
	// and a wan_lean_50k shard. Of the chain counts, 13 is inside the range
	// a sampler reads in those runs and 94 and 420 are above it
	// (docs/PERFORMANCE.md, "One event queue").
	// ns/op is the cost of one firing, nearly all of them the chains'.
	for _, pop := range []struct{ chains, tickers int }{{13, 49}, {94, 322}, {420, 1259}} {
		b.Run(fmt.Sprintf("shard/chains=%d/tickers=%d", pop.chains, pop.tickers), func(b *testing.B) {
			s := New(5)
			fired := 0
			tick := func() { fired++ }
			for i := 0; i < pop.tickers; i++ {
				s.Every(time.Duration(i%180)*time.Second, 3*time.Minute, tick)
			}
			for i := 0; i < pop.chains; i++ {
				think := time.Duration(50+37*i) * time.Millisecond
				var chain func()
				chain = func() {
					fired++
					s.After(think, chain)
				}
				s.After(think, chain)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for fired < b.N {
				s.Step()
			}
		})
	}
	b.Run("mixed", func(b *testing.B) {
		s := New(3)
		fired := 0
		tks := make([]*Ticker, 32)
		for i := range tks {
			period := time.Duration(50+11*i) * time.Millisecond
			tks[i] = s.Every(time.Duration(i)*time.Millisecond, period, func() { fired++ })
		}
		var chain func()
		chain = func() {
			fired++
			if fired < b.N {
				s.After(300*time.Microsecond, chain)
			}
		}
		s.After(0, chain)
		b.ReportAllocs()
		b.ResetTimer()
		for fired < b.N {
			s.Step()
		}
		b.StopTimer()
		for _, tk := range tks {
			tk.Stop()
		}
	})
}

func BenchmarkRandDistributions(b *testing.B) {
	g := NewRand(1)
	b.Run("lognormal", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g.LogNormal(4096, 1.1)
		}
	})
	b.Run("boundedpareto", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g.BoundedPareto(1024, 1<<20, 1.1)
		}
	})
	b.Run("pick", func(b *testing.B) {
		w := []float64{1, 2, 3, 4, 5, 6, 7, 8}
		for i := 0; i < b.N; i++ {
			g.Pick(w)
		}
	})
}
