// wan-scale demonstrates the hierarchical topology: the paper's
// community multiplied to 400 clients on four Ethernet segments, but
// the segments grouped into two sites joined by a WAN trunk instead of
// a flat campus backbone. Remote artifacts (binaries, kernels,
// group-shared files) are homed by one hash over the four segments;
// client site affinity keeps most remote traffic on the
// cheap intra-site tier, and the report breaks out what crossed the
// WAN and what it cost in latency. The hierarchical run preserves the
// flat run's guarantee — sequential and parallel executors are
// byte-identical — so the example runs both and checks.
//
//	go run ./examples/wan-scale
package main

import (
	"bytes"
	"fmt"
	"time"

	"spritefs/internal/scale"
	"spritefs/internal/workload"
)

func main() {
	cfg := scale.Config{
		Base:   workload.Default(42),
		Factor: 10, // 400 clients
		Shards: 4,  // four Ethernet segments...
		Sites:  2,  // ...grouped two per site, sites joined by a WAN trunk
		Tiers: scale.TiersConfig{
			Site: scale.Tier{Latency: 2 * time.Millisecond, BandwidthBps: 12.5e6},
			WAN:  scale.Tier{Latency: 30 * time.Millisecond, BandwidthBps: 5.625e6},
		},
	}
	cfg.Remote = scale.DefaultRemote()
	cfg.Remote.SiteAffinity = 0.7 // 70% of remote picks prefer the local site

	build := func() *scale.Engine { return scale.MustNew(cfg) }
	horizon := 30 * time.Minute

	par := build()
	parStats := par.Run(scale.RunOptions{Horizon: horizon, Parallel: true})
	seq := build()
	seqStats := seq.Run(scale.RunOptions{Horizon: horizon})

	rep := par.Report()
	fmt.Println(rep.Table())
	fmt.Println(rep.ExecTable())

	var a, b bytes.Buffer
	if err := par.Reg.WritePrometheus(&a); err != nil {
		panic(err)
	}
	if err := seq.Reg.WritePrometheus(&b); err != nil {
		panic(err)
	}
	seqRep := seq.Report()
	if !bytes.Equal(a.Bytes(), b.Bytes()) || rep.Table().String() != seqRep.Table().String() {
		panic("parallel and sequential executors disagree")
	}
	var remoteOps int64
	for _, s := range rep.PerShard {
		remoteOps += s.Remote.OpsIssued
	}
	fmt.Printf("cross-site ops: %d of %d remote (%.0f%% stayed on the site tier)\n",
		rep.CrossSiteOps, remoteOps,
		100*(1-float64(rep.CrossSiteOps)/float64(max(remoteOps, 1))))
	fmt.Printf("wan trunk: %d msgs, %.1f MB, %.2f%% utilized\n",
		rep.WANMsgs, float64(rep.WANBytes)/1e6, rep.WANUtil*100)
	fmt.Printf("parallel (%d workers): %v wall   sequential: %v wall\n",
		parStats.Workers, parStats.Wall.Round(time.Millisecond), seqStats.Wall.Round(time.Millisecond))
	fmt.Println("reports and metric dumps are byte-identical across executors")
}
