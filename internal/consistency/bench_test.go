package consistency

import (
	"testing"
	"time"
)

func BenchmarkSimulateOverhead(b *testing.B) {
	st := randomSharedTrace(1, 5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SimulateOverhead(st)
	}
	b.ReportMetric(float64(len(st.Events)), "events")
}

func BenchmarkSimulateStale(b *testing.B) {
	st := randomSharedTrace(1, 5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SimulateStale(st, 60*time.Second)
	}
}

func BenchmarkCollectShared(b *testing.B) {
	// CollectShared takes the trace in one pass.
	recs := randomRecords(3, 20000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CollectShared(recs)
	}
}
