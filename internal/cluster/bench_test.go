package cluster

import (
	"fmt"
	"testing"
	"time"
)

// idleCluster is a community-less system of n workstations with cold
// caches and its daemons running: the only recurring work is the
// delayed-write daemons finding nothing to write (plus one server
// cleaner).
func idleCluster(n int) *Cluster {
	c := NewSystem(Config{NumServers: 1})
	for id := 0; id < n; id++ {
		c.AddClient(int32(id))
	}
	c.StartDaemons()
	return c
}

// BenchmarkCleanerIdleTick prices the delayed-write daemon where it
// usually is: awake with nothing old enough to write. ns/op is one
// workstation's daemon for one 5-second period, at the paper's cluster
// and at the per-shard populations of the scale_5k and wan_lean_50k
// benchmark workloads. internal/sim's BenchmarkSimCore/daemons prices the
// scheduler under one ticker per workstation; this is the whole path.
func BenchmarkCleanerIdleTick(b *testing.B) {
	for _, clients := range []int{40, 313, 1250} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			c := idleCluster(clients)
			b.ReportAllocs()
			b.ResetTimer()
			for done := 0; done < b.N; done += clients {
				c.Sim.RunUntil(c.Sim.Now() + 5*time.Second)
			}
		})
	}
}
