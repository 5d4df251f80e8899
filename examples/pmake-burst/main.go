// pmake-burst demonstrates the paper's headline migration result: process
// migration multiplies a user's short-term file throughput by roughly a
// factor of six, yet migrated processes cache *better* than average
// because the host-selection policy keeps reusing the same warm machines.
//
// The example runs the same community twice — once with migration-heavy
// pmake users, once with migration disabled — and compares Table 2's
// burst metrics and Table 6's migrated-column hit ratios. pmake's link
// runs at home and reads every object its migrated targets wrote; those
// reads miss the home cache, which raises the all-traffic miss ratio
// beside the migrated one, so part of the gap it prints is the link's.
//
//	go run ./examples/pmake-burst
package main

import (
	"fmt"
	"log"
	"time"

	"spritefs/internal/analysis"
	"spritefs/internal/cluster"
	"spritefs/internal/trace"
	"spritefs/internal/workload"
)

func run(migration bool) (*analysis.UserActivity, cluster.Table6, workload.Stats) {
	p := workload.Default(99)
	p.NumClients = 12
	p.DailyUsers = 8
	p.OccasionalUsers = 6
	// Make every daily user a pmake user so bursts are easy to see.
	if migration {
		p.MigrationUserFrac = 1.0
	} else {
		p.MigrationUserFrac = 0
	}
	for g := workload.Group(0); g < workload.NumGroups; g++ {
		p.AppMix[g][workload.AppPmake] *= 4
	}

	cfg := cluster.DefaultConfig(p)
	cfg.NumServers = 2
	c := cluster.New(cfg)
	c.Run(3 * time.Hour)

	ua := analysis.NewUserActivity()
	if err := analysis.Run(trace.Merge(c.PerServerStreams()...), ua); err != nil {
		log.Fatal(err)
	}
	return ua, c.Table6Report(), c.Engine.Stats()
}

func main() {
	fmt.Println("running with process migration...")
	withUA, withT6, withStats := run(true)
	fmt.Println("running without migration...")
	noUA, _, _ := run(false)

	fmt.Printf("\n%d processes migrated; %d evicted when owners returned\n",
		withStats.Migrations, withStats.Evictions)

	fmt.Println("\n10-second interval throughput (Table 2's burst view):")
	fmt.Printf("  all users, with migration:      %6.1f KB/s per active user\n", withUA.TenSecAll.AvgThroughputKBs)
	fmt.Printf("  migrated processes only:        %6.1f KB/s per active user\n", withUA.TenSecMigrated.AvgThroughputKBs)
	fmt.Printf("  all users, migration disabled:  %6.1f KB/s per active user\n", noUA.TenSecAll.AvgThroughputKBs)
	if base := withUA.TenSecAll.AvgThroughputKBs; base > 0 {
		fmt.Printf("  => migration burst factor: %.1fx (paper: ~6x)\n",
			withUA.TenSecMigrated.AvgThroughputKBs/base)
	}

	fmt.Println("\nCache effectiveness for migrated processes (Table 6's surprise):")
	fmt.Printf("  read miss ratio, all traffic:       %5.1f%%\n", withT6.All.ReadMissPct)
	fmt.Printf("  read miss ratio, migrated traffic:  %5.1f%%\n", withT6.Migrated.ReadMissPct)
	fmt.Println("  (the paper found migrated processes MISS LESS than average, thanks")
	fmt.Println("   to the reuse bias in idle-host selection keeping target caches warm)")
}
