// Command cachesim runs the design-choice what-ifs the paper discusses:
// the local-disk paging argument of Section 5.3, a fixed-cache-size sweep
// (the BSD study's prediction of 10% misses at 4 MB versus Sprite's
// measured ~40%), a writeback-delay sweep (the paper's "longer writeback
// intervals" future work), the prefetch question ("prefetching could
// reduce latencies, but it would not reduce the read miss ratio... server
// traffic"), and Table 11's consistency schemes measured live. The Section
// 5 counter study itself (Tables 4-9) is experiments -exp section5.
//
// Usage:
//
//	cachesim -whatif localdisk -days 1
//	cachesim -whatif cachesize -days 0.5
//	cachesim -whatif delay -days 0.5
//	cachesim -whatif prefetch -days 0.5
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"spritefs/internal/client"
	"spritefs/internal/cluster"
	"spritefs/internal/core"
	"spritefs/internal/netsim"
	"spritefs/internal/stats"
	"spritefs/internal/vm"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cachesim:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("cachesim", flag.ContinueOnError)
	var (
		days   = fs.Float64("days", 1, "simulated days")
		seed   = fs.Int64("seed", 424242, "workload seed")
		whatif = fs.String("whatif", "", "what-if analysis (required): localdisk, cachesize, delay, prefetch, consistency")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *whatif == "" {
		return fmt.Errorf("-whatif is required (localdisk, cachesize, delay, prefetch or consistency); the Section 5 tables are experiments -exp section5")
	}
	// A what-if given a non-positive horizon runs zero seconds: reject it
	// rather than print tables of zeros.
	if *days <= 0 {
		return fmt.Errorf("-days must be positive (got %g)", *days)
	}

	switch *whatif {
	case "localdisk":
		localDisk(out, *days, *seed)
	case "cachesize":
		cacheSizeSweep(out, *days, *seed)
	case "delay":
		delaySweep(out, *days, *seed)
	case "prefetch":
		prefetchSweep(out, *days, *seed)
	case "consistency":
		consistencyModes(out, *days, *seed)
	default:
		return fmt.Errorf("unknown what-if %q (want localdisk, cachesize, delay, prefetch or consistency)", *whatif)
	}
	return nil
}

func runCluster(cfg cluster.Config, days float64) *cluster.Cluster {
	cfg.CollectTrace = false
	c := cluster.New(cfg)
	c.Run(time.Duration(days * 24 * float64(time.Hour)))
	return c
}

// localDisk evaluates Section 5.3's claim: putting backing files on local
// disks would reduce server traffic by only ~20%, and would *hurt*
// latency, since a 4 KB network fetch (6-7 ms) beats a 1991 local disk
// access (20-30 ms).
func localDisk(out io.Writer, days float64, seed int64) {
	cfg := cluster.DefaultConfig(core.CounterParams(seed))
	c := runCluster(cfg, days)

	total := c.Net.Total()
	// Backing-file traffic (heap/stack pages) is the portion a local disk
	// could absorb; code and initialized-data paging still comes from the
	// shared executables on the servers.
	var backing int64
	for _, cl := range c.Clients {
		st := cl.VM.Stats()
		backing += st.BytesIn[vm.PageHeap] + st.BytesOut[vm.PageHeap] +
			st.BytesIn[vm.PageStack] + st.BytesOut[vm.PageStack]
	}
	serverBytes := total.TotalBytes()
	reduction := stats.Ratio(backing, serverBytes)

	netFetch := netsim.New(netsim.DefaultConfig()).RPC(0, netsim.PagingRead, 4096)
	const localDiskAccess = 25 * time.Millisecond // 20-30 ms in 1991

	t := stats.NewTable("What-if: backing files on local disks (Section 5.3)", "Metric", "Value", "Paper")
	t.AddRow("server traffic that is backing-file paging", fmt.Sprintf("%.1f%%", reduction), "~20%")
	t.AddRow("4KB fetch over network", netFetch.String(), "6-7ms")
	t.AddRow("4KB fetch from local disk", localDiskAccess.String(), "20-30ms")
	verdict := "local disks would SLOW paging down"
	if localDiskAccess < netFetch {
		verdict = "local disks would speed paging up"
	}
	t.AddRow("verdict", verdict, "agrees: \"we disagree\" with local disks")
	fmt.Fprintln(out, t)
}

// cacheSizeSweep pins the client caches at fixed sizes and reports miss
// ratios — the experiment behind the BSD study's (over-optimistic)
// prediction that a 4 MB cache would miss only 10% of the time.
func cacheSizeSweep(out io.Writer, days float64, seed int64) {
	t := stats.NewTable("What-if: fixed cache sizes (BSD-study prediction check)",
		"Cache size", "File read miss %", "Read miss traffic %", "Server/raw bytes %")
	for _, mb := range []int{1, 2, 4, 8, 16} {
		cfg := cluster.DefaultConfig(core.CounterParams(seed))
		cfg.FixedCachePages = mb << 20 / vm.PageSize
		c := runCluster(cfg, days)
		t6 := c.Table6Report()
		t5 := c.Table5Report()
		t7 := c.Table7Report()
		filter := stats.RatioF(float64(t7.TotalBytes), float64(t5.TotalBytes))
		t.AddRow(fmt.Sprintf("%d MB", mb),
			fmt.Sprintf("%.1f", t6.All.ReadMissPct),
			fmt.Sprintf("%.1f", t6.All.ReadMissTrafficPct),
			fmt.Sprintf("%.1f", filter))
	}
	fmt.Fprintln(out, t)
	fmt.Fprintln(out, "Paper: the BSD study predicted ~10% misses at 4 MB; Sprite measured ~40%,")
	fmt.Fprintln(out, "blamed on much larger files. The sweep shows the same large-file floor.")
}

// delaySweep varies the delayed-write interval — the paper's suggested
// future direction once reads are fully absorbed ("longer writeback
// intervals ... will become attractive").
func delaySweep(out io.Writer, days float64, seed int64) {
	t := stats.NewTable("What-if: writeback delay sweep (Section 6 future work)",
		"Delay", "Writeback traffic %", "Bytes saved by delete %")
	for _, d := range []time.Duration{5 * time.Second, 30 * time.Second, 2 * time.Minute, 10 * time.Minute} {
		cfg := cluster.DefaultConfig(core.CounterParams(seed))
		cfg.WritebackDelay = d
		c := runCluster(cfg, days)
		t6 := c.Table6Report()
		t.AddRow(d.String(),
			fmt.Sprintf("%.1f", t6.All.WritebackPct),
			fmt.Sprintf("%.1f", t6.BytesSavedByDeletePct))
	}
	fmt.Fprintln(out, t)
	fmt.Fprintln(out, "Paper: 30s lets ~10% of new bytes die in the cache; longer delays save more")
	fmt.Fprintln(out, "but leave data more vulnerable to client crashes.")
}

// consistencyModes runs the cluster live under Sprite's perfect
// consistency and under NFS-style polling — the experiment behind the
// paper's Table 11, which the authors could only estimate from traces.
func consistencyModes(out io.Writer, days float64, seed int64) {
	t := stats.NewTable("What-if: live consistency schemes (Table 11, measured directly)",
		"Scheme", "Stale reads/hour", "Stale KB/hour", "Validation RPCs/hour")
	hours := days * 24
	modes := []struct {
		name     string
		mode     client.ConsistencyMode
		interval time.Duration
	}{
		{"sprite (perfect)", client.ConsistencySprite, 0},
		{"poll 60s", client.ConsistencyPoll, 60 * time.Second},
		{"poll 3s", client.ConsistencyPoll, 3 * time.Second},
	}
	for _, m := range modes {
		p := core.CounterParams(seed)
		p.AwaySessionProb = 0.3
		p.SharedReadSoonP = 0.9
		cfg := cluster.DefaultConfig(p)
		cfg.Consistency = m.mode
		cfg.PollInterval = m.interval
		c := runCluster(cfg, days)
		st := c.LiveStaleReport()
		t.AddRow(m.name,
			fmt.Sprintf("%.1f", float64(st.StaleReads)/hours),
			fmt.Sprintf("%.1f", float64(st.StaleBytes)/1024/hours),
			fmt.Sprintf("%.0f", float64(st.PollRPCs)/hours))
	}
	fmt.Fprintln(out, t)
	fmt.Fprintln(out, "Paper (trace-driven estimate): 18 errors/hour at 60s, ~0.6 at 3s; Sprite: zero")
	fmt.Fprintln(out, "by construction. The live run measures the same cliff directly.")
}

// prefetchSweep verifies the paper's §5.2 claim that prefetching cannot
// reduce read-related server traffic (only latency).
func prefetchSweep(out io.Writer, days float64, seed int64) {
	t := stats.NewTable("What-if: sequential prefetch (Section 5.2 claim check)",
		"Prefetch blocks", "File read miss %", "Read miss traffic %", "Server read MB")
	for _, n := range []int{0, 2, 8} {
		cfg := cluster.DefaultConfig(core.CounterParams(seed))
		cfg.PrefetchBlocks = n
		c := runCluster(cfg, days)
		t6 := c.Table6Report()
		total := c.Net.Total()
		t.AddRow(fmt.Sprint(n),
			fmt.Sprintf("%.1f", t6.All.ReadMissPct),
			fmt.Sprintf("%.1f", t6.All.ReadMissTrafficPct),
			fmt.Sprintf("%.0f", float64(total.Bytes[netsim.FileRead]+total.Bytes[netsim.PagingRead])/(1<<20)))
	}
	fmt.Fprintln(out, t)
	fmt.Fprintln(out, "Paper: \"prefetching could reduce latencies, but it would not reduce the")
	fmt.Fprintln(out, "read miss ratio['s] ... server traffic\" — miss ops fall, bytes do not.")
}
