package core

import (
	"fmt"
	"strings"
	"time"

	"spritefs/internal/cluster"
	"spritefs/internal/stats"
	"spritefs/internal/workload"
)

// DefaultWorkloadHours is the modern-workload study's horizon per
// community when WorkloadOptions.Hours is zero.
const DefaultWorkloadHours = 2

// WorkloadOptions configures the modern-workload study.
type WorkloadOptions struct {
	// Hours of simulated time per community (default
	// DefaultWorkloadHours).
	Hours float64
	// Scale shrinks each community as in TraceOptions.
	Scale float64
	Seed  int64
}

// WorkloadRow summarizes one community run: how much of the offered load
// the new application carried, and how the cache and migration machinery
// responded to it.
type WorkloadRow struct {
	Name string
	// App is the headline application of this community.
	App workload.AppKind

	Programs    int64 // programs of the headline app
	AllPrograms int64
	ReadMB      float64 // bytes read by the headline app
	WriteMB     float64
	TotalMB     float64 // all apps, reads+writes

	Migrations int64
	Evictions  int64

	ReadMissPct        float64 // client cache read miss ratio (Table 6 All)
	ReadMissTrafficPct float64
}

// WorkloadResult holds the per-community rows.
type WorkloadResult struct {
	Hours float64
	Rows  []WorkloadRow
}

// RunWorkloadStudy contrasts the paper's 1991 mix with the two post-1991
// generators (ROADMAP item 16): a media-streaming community whose large
// sequential reads defeat whole-file caching, and a package-build farm
// whose migration fan-out stresses the Table 6 "migrated" columns. Each
// community runs on its own cluster with the same seed and horizon, so
// the rows are directly comparable.
func RunWorkloadStudy(opts WorkloadOptions) *WorkloadResult {
	hours := opts.Hours
	if hours <= 0 {
		hours = DefaultWorkloadHours
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 19912026
	}
	dur := time.Duration(hours * float64(time.Hour))

	communities := []struct {
		name string
		app  workload.AppKind
		p    workload.Params
	}{
		{"sprite-1991", workload.AppCompile, workload.Default(seed)},
		{"streaming", workload.AppStream, workload.StreamingParams(seed)},
		{"build-farm", workload.AppBuildFarm, workload.BuildFarmParams(seed)},
	}

	res := &WorkloadResult{Hours: hours}
	for _, c := range communities {
		p := scaleParams(c.p, opts.Scale)
		p.EmitBackupNoise = false
		cfg := cluster.DefaultConfig(p)
		cfg.CollectTrace = false
		cfg.SamplePeriod = 0
		cl := cluster.New(cfg)
		cl.Run(dur)

		st := cl.Engine.Stats()
		t6 := cl.Table6Report()
		row := WorkloadRow{
			Name:               c.name,
			App:                c.app,
			Programs:           st.RunsByApp[c.app],
			AllPrograms:        st.ProgramsRun,
			ReadMB:             float64(st.ReadByApp[c.app]) / (1 << 20),
			WriteMB:            float64(st.WriteByApp[c.app]) / (1 << 20),
			Migrations:         st.Migrations,
			Evictions:          st.Evictions,
			ReadMissPct:        t6.All.ReadMissPct,
			ReadMissTrafficPct: t6.All.ReadMissTrafficPct,
		}
		for a := workload.AppKind(0); a < workload.NumApps; a++ {
			row.TotalMB += float64(st.ReadByApp[a]+st.WriteByApp[a]) / (1 << 20)
		}
		res.Rows = append(res.Rows, row)
	}
	return res
}

// WorkloadTables renders the community comparison.
func WorkloadTables(r *WorkloadResult) string {
	t := stats.NewTable(
		fmt.Sprintf("Modern workloads vs the 1991 mix (%.1fh per community)", r.Hours),
		"community", "app", "runs", "app MB r/w", "total MB", "migrations", "evictions",
		"read miss %", "miss traffic %")
	for _, row := range r.Rows {
		t.AddRow(row.Name, row.App.String(),
			fmt.Sprintf("%d", row.Programs),
			fmt.Sprintf("%.1f/%.1f", row.ReadMB, row.WriteMB),
			fmt.Sprintf("%.1f", row.TotalMB),
			fmt.Sprintf("%d", row.Migrations),
			fmt.Sprintf("%d", row.Evictions),
			fmt.Sprintf("%.1f", row.ReadMissPct),
			fmt.Sprintf("%.1f", row.ReadMissTrafficPct))
	}
	var b strings.Builder
	b.WriteString(t.String())
	b.WriteString("\nstreaming reads are paced sequential scans over media-sized files; " +
		"the build farm fans package compiles out via process migration " +
		"(compare its migrations column against the 1991 pmake row).\n")
	return b.String()
}
