package replay

import (
	"testing"

	"spritefs/internal/trace"
)

// BenchmarkReplayThroughput measures replay rate in records per second —
// the figure of merit for as-fast-as-possible trace experiments (the
// paper's simulators chewed through multi-day traces; ours should replay
// hours of trace in milliseconds).
func BenchmarkReplayThroughput(b *testing.B) {
	live := capturedTrace(b)
	cfg := replayCfg("bench")
	cfg.AsFastAsPossible = true
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(cfg, trace.NewSliceStream(live.recs))
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.Applied == 0 {
			b.Fatal("no records applied")
		}
	}
	b.StopTimer()
	total := float64(b.N) * float64(len(live.recs))
	b.ReportMetric(total/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkReplayPaced replays with real timestamps (virtual time advances
// through the full trace horizon), exercising the event-loop pacing path.
func BenchmarkReplayPaced(b *testing.B) {
	live := capturedTrace(b)
	cfg := replayCfg("bench-paced")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg, trace.NewSliceStream(live.recs)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	total := float64(b.N) * float64(len(live.recs))
	b.ReportMetric(total/b.Elapsed().Seconds(), "records/s")
}
