package core

import (
	"fmt"
	"slices"
	"strings"

	"spritefs/internal/analysis"
	"spritefs/internal/consistency"
	"spritefs/internal/fscache"
	"spritefs/internal/netsim"
	"spritefs/internal/stats"
)

// The cell catalog: every number the paper's Tables 1-12 and Figures 1-4
// print, and every other number a run computes, is a named cell. A table
// is a title, headers and rows of cell ids, and render is the one place a
// cell is formatted. TraceReport and CounterTables print the paper's
// tables; TraceDetail and CounterDetail print every cell those tables
// leave out, so nothing computed goes unprinted.

// ref is a value the paper published: a number, printed in its cell's
// format; the paper's own figure where it gives one ("~35", "65-80",
// "0.34 (0.18-0.56)"); or one number per trace (Table 1).
type ref struct {
	v      float64
	text   string
	traces []float64
}

func num(v float64) *ref         { return &ref{v: v} }
func about(v float64) *ref       { return &ref{text: fmt.Sprintf("~%.0f", v)} }
func says(text string) *ref      { return &ref{text: text} }
func perTrace(v ...float64) *ref { return &ref{traces: v} }

func (p *ref) format(format string) string {
	if p.text != "" {
		return p.text
	}
	return fmt.Sprintf(format, p.v)
}

// cell is one number: an id (its table, then what it measures), the label
// a table row prints, a format, the paper's value (nil where the paper
// prints none) and how to read it off a finished run. A Section 4 cell
// reads one trace, and tables print its mean over the traces — with the
// per-trace (min-max) when spread is set, as the paper's Table 10 does. A
// Section 5 cell reads the counter study. A cell that reads neither is a
// value the paper prints and the model does not measure.
type cell struct {
	id, label, format string
	paper             *ref
	trace             func(*TraceResult) float64
	counter           func(*CounterResult) float64
	spread            bool
}

func tc(id, label, format string, paper *ref, f func(*TraceResult) float64) cell {
	return cell{id: id, label: label, format: format, paper: paper, trace: f}
}

func cc(id, label, format string, paper *ref, f func(*CounterResult) float64) cell {
	return cell{id: id, label: label, format: format, paper: paper, counter: f}
}

func spread(c cell) cell { c.spread = true; return c }

// measured formats the cell's value: the counter study's, or the mean over
// the traces.
func (c *cell) measured(traces []*TraceResult, cr *CounterResult) string {
	switch {
	case c.counter != nil:
		return fmt.Sprintf(c.format, c.counter(cr))
	case c.trace == nil, c.spread && len(traces) == 0:
		return "-"
	}
	var w stats.Welford
	for _, r := range traces {
		w.Add(c.trace(r))
	}
	if c.spread && len(traces) > 1 {
		return fmt.Sprintf(c.format+" ("+c.format+"-"+c.format+")", w.Mean(), w.Min(), w.Max())
	}
	return fmt.Sprintf(c.format, w.Mean())
}

// table is one printed table. Each cell of a row prints its measured value
// and, when the paper has one, the paper's; the row is labelled by its
// first cell. A perTrace table (Table 1) prints a column per trace instead,
// "measured|paper" where the paper gives that trace's value.
type table struct {
	title    string
	headers  []string
	perTrace bool
	rows     [][]string
}

func (t *table) render(traces []*TraceResult, cr *CounterResult) *stats.Table {
	out := stats.NewTable(t.title, slices.Clone(t.headers)...)
	if t.perTrace {
		for _, r := range traces {
			out.Headers = append(out.Headers, fmt.Sprintf("T%d", r.TraceNum))
		}
	}
	for _, ids := range t.rows {
		row := []string{catalog[ids[0]].label}
		for _, id := range ids {
			c := catalog[id]
			switch {
			case t.perTrace:
				for _, r := range traces {
					v := fmt.Sprintf(c.format, c.trace(r))
					if c.paper != nil && r.TraceNum >= 1 && r.TraceNum <= len(c.paper.traces) {
						v += fmt.Sprintf("|%g", c.paper.traces[r.TraceNum-1])
					}
					row = append(row, v)
				}
			case c.paper == nil:
				row = append(row, c.measured(traces, cr))
			default:
				row = append(row, c.measured(traces, cr), c.paper.format(c.format))
			}
		}
		out.AddRow(row...)
	}
	return out
}

// detail renders, a row each, the cells none of tables prints.
func detail(title string, cells []cell, tables []table, traces []*TraceResult, cr *CounterResult) *stats.Table {
	printed := map[string]bool{}
	for _, t := range tables {
		for _, ids := range t.rows {
			for _, id := range ids {
				printed[id] = true
			}
		}
	}
	out := stats.NewTable(title, "Cell", "Metric", "Measured", "Paper")
	for i := range cells {
		c := &cells[i]
		if printed[c.id] {
			continue
		}
		paper := "-"
		if c.paper != nil {
			paper = c.paper.format(c.format)
		}
		out.AddRow(c.id, c.label, c.measured(traces, cr), paper)
	}
	return out
}

// catalog indexes every cell by id.
var catalog = func() map[string]*cell {
	m := map[string]*cell{}
	for _, cells := range [][]cell{traceCells, counterCells} {
		for i := range cells {
			m[cells[i].id] = &cells[i]
		}
	}
	return m
}()

// Section 4: the trace analyses and the consistency simulations.

var traceCells = slices.Concat([]cell{
	tc("t1.hours", "Duration (hours)", "%.1f", nil, func(r *TraceResult) float64 { return r.Hours }),
	tc("t1.users", "Different users", "%.0f", perTrace(44, 48, 47, 33, 48, 50, 46, 36), func(r *TraceResult) float64 { return float64(r.Overall.Users) }),
	tc("t1.migration_users", "Users of migration", "%.0f", nil, func(r *TraceResult) float64 { return float64(r.Overall.MigrationUsers) }),
	tc("t1.mb_read", "MB read from files", "%.0f", perTrace(1282, 1608, 13064, 17754, 822, 1489, 1292, 2320), func(r *TraceResult) float64 { return r.Overall.MBReadFiles }),
	tc("t1.mb_written", "MB written to files", "%.0f", nil, func(r *TraceResult) float64 { return r.Overall.MBWrittenFiles }),
	tc("t1.mb_read_dirs", "MB read from dirs", "%.1f", nil, func(r *TraceResult) float64 { return r.Overall.MBReadDirs }),
	tc("t1.opens", "Open events", "%.0f", perTrace(149254, 224102, 149898, 115929, 124508, 184863, 133846, 275140), func(r *TraceResult) float64 { return float64(r.Overall.Opens) }),
	tc("t1.closes", "Close events", "%.0f", nil, func(r *TraceResult) float64 { return float64(r.Overall.Closes) }),
	tc("t1.repositions", "Reposition events", "%.0f", nil, func(r *TraceResult) float64 { return float64(r.Overall.Repositions) }),
	tc("t1.deletes", "Delete events", "%.0f", nil, func(r *TraceResult) float64 { return float64(r.Overall.Deletes) }),
	tc("t1.truncates", "Truncate events", "%.0f", nil, func(r *TraceResult) float64 { return float64(r.Overall.Truncates) }),
	tc("t1.shared_reads", "Shared read events", "%.0f", nil, func(r *TraceResult) float64 { return float64(r.Overall.SharedReads) }),
	tc("t1.shared_writes", "Shared write events", "%.0f", nil, func(r *TraceResult) float64 { return float64(r.Overall.SharedWrites) }),

	tc("t2.10m.avg_users", "10-min avg active users", "%.2f", num(9.1), func(r *TraceResult) float64 { return r.Activity.TenMinAll.AvgActiveUsers }),
	tc("t2.10m.sd_users", "10-min sd active users", "%.2f", nil, func(r *TraceResult) float64 { return r.Activity.TenMinAll.SDActiveUsers }),
	tc("t2.10m.max_users", "10-min max active users", "%.0f", nil, func(r *TraceResult) float64 { return float64(r.Activity.TenMinAll.MaxActiveUsers) }),
	tc("t2.10m.avg_kbs", "10-min avg throughput/user (KB/s)", "%.2f", num(8.0), func(r *TraceResult) float64 { return r.Activity.TenMinAll.AvgThroughputKBs }),
	tc("t2.10m.sd_kbs", "10-min sd throughput/user (KB/s)", "%.2f", nil, func(r *TraceResult) float64 { return r.Activity.TenMinAll.SDThroughputKBs }),
	tc("t2.10m.peak_user_kbs", "10-min peak user (KB/s)", "%.2f", num(458), func(r *TraceResult) float64 { return r.Activity.TenMinAll.PeakUserKBs }),
	tc("t2.10m.peak_total_kbs", "10-min peak total (KB/s)", "%.2f", nil, func(r *TraceResult) float64 { return r.Activity.TenMinAll.PeakTotalKBs }),
	tc("t2.10m_mig.avg_users", "10-min migrated avg active users", "%.2f", nil, func(r *TraceResult) float64 { return r.Activity.TenMinMigrated.AvgActiveUsers }),
	tc("t2.10m_mig.sd_users", "10-min migrated sd active users", "%.2f", nil, func(r *TraceResult) float64 { return r.Activity.TenMinMigrated.SDActiveUsers }),
	tc("t2.10m_mig.max_users", "10-min migrated max active users", "%.0f", nil, func(r *TraceResult) float64 { return float64(r.Activity.TenMinMigrated.MaxActiveUsers) }),
	tc("t2.10m_mig.avg_kbs", "10-min migrated throughput (KB/s)", "%.2f", num(50.7), func(r *TraceResult) float64 { return r.Activity.TenMinMigrated.AvgThroughputKBs }),
	tc("t2.10m_mig.sd_kbs", "10-min migrated sd throughput (KB/s)", "%.2f", nil, func(r *TraceResult) float64 { return r.Activity.TenMinMigrated.SDThroughputKBs }),
	tc("t2.10m_mig.peak_user_kbs", "10-min migrated peak user (KB/s)", "%.2f", nil, func(r *TraceResult) float64 { return r.Activity.TenMinMigrated.PeakUserKBs }),
	tc("t2.10m_mig.peak_total_kbs", "10-min migrated peak total (KB/s)", "%.2f", nil, func(r *TraceResult) float64 { return r.Activity.TenMinMigrated.PeakTotalKBs }),
	tc("t2.10s.avg_users", "10-sec avg active users", "%.2f", num(1.6), func(r *TraceResult) float64 { return r.Activity.TenSecAll.AvgActiveUsers }),
	tc("t2.10s.sd_users", "10-sec sd active users", "%.2f", nil, func(r *TraceResult) float64 { return r.Activity.TenSecAll.SDActiveUsers }),
	tc("t2.10s.max_users", "10-sec max active users", "%.0f", nil, func(r *TraceResult) float64 { return float64(r.Activity.TenSecAll.MaxActiveUsers) }),
	tc("t2.10s.avg_kbs", "10-sec avg throughput/user (KB/s)", "%.2f", num(47), func(r *TraceResult) float64 { return r.Activity.TenSecAll.AvgThroughputKBs }),
	tc("t2.10s.sd_kbs", "10-sec sd throughput/user (KB/s)", "%.2f", nil, func(r *TraceResult) float64 { return r.Activity.TenSecAll.SDThroughputKBs }),
	tc("t2.10s.peak_user_kbs", "10-sec peak user (KB/s)", "%.2f", num(9871), func(r *TraceResult) float64 { return r.Activity.TenSecAll.PeakUserKBs }),
	tc("t2.10s.peak_total_kbs", "10-sec peak total (KB/s)", "%.2f", nil, func(r *TraceResult) float64 { return r.Activity.TenSecAll.PeakTotalKBs }),
	tc("t2.10s_mig.avg_users", "10-sec migrated avg active users", "%.2f", nil, func(r *TraceResult) float64 { return r.Activity.TenSecMigrated.AvgActiveUsers }),
	tc("t2.10s_mig.sd_users", "10-sec migrated sd active users", "%.2f", nil, func(r *TraceResult) float64 { return r.Activity.TenSecMigrated.SDActiveUsers }),
	tc("t2.10s_mig.max_users", "10-sec migrated max active users", "%.0f", nil, func(r *TraceResult) float64 { return float64(r.Activity.TenSecMigrated.MaxActiveUsers) }),
	tc("t2.10s_mig.avg_kbs", "10-sec migrated throughput (KB/s)", "%.2f", num(316), func(r *TraceResult) float64 { return r.Activity.TenSecMigrated.AvgThroughputKBs }),
	tc("t2.10s_mig.sd_kbs", "10-sec migrated sd throughput (KB/s)", "%.2f", nil, func(r *TraceResult) float64 { return r.Activity.TenSecMigrated.SDThroughputKBs }),
	tc("t2.10s_mig.peak_user_kbs", "10-sec migrated peak user (KB/s)", "%.2f", nil, func(r *TraceResult) float64 { return r.Activity.TenSecMigrated.PeakUserKBs }),
	tc("t2.10s_mig.peak_total_kbs", "10-sec migrated peak total (KB/s)", "%.2f", nil, func(r *TraceResult) float64 { return r.Activity.TenSecMigrated.PeakTotalKBs }),
	tc("t2.bsd.10m_kbs", "BSD-study 10-min throughput", "%.2f", num(0.40), nil),
	tc("t2.bsd.10s_kbs", "BSD-study 10-sec throughput", "%.2f", num(1.5), nil),
}, accessCells(), []cell{
	tc("fig1.runs_le_10k_pct", "Fig1: runs <= 10 KB (by runs)", "%.1f", about(80), func(r *TraceResult) float64 { return 100 * r.Access.RunsByCount.FracAtOrBelow(10*1024) }),
	tc("fig1.bytes_gt_1m_pct", "Fig1: bytes in runs > 1 MB", "%.1f", says(">=10"), func(r *TraceResult) float64 { return 100 * (1 - r.Access.RunsByBytes.FracAtOrBelow(1<<20)) }),
	tc("fig2.files_le_10k_pct", "Fig2: accesses to files <= 10 KB", "%.1f", about(80), func(r *TraceResult) float64 { return 100 * r.Access.SizeByFiles.FracAtOrBelow(10*1024) }),
	tc("fig2.bytes_ge_1m_pct", "Fig2: bytes from files >= 1 MB", "%.1f", says("~40 (trace 1)"), func(r *TraceResult) float64 { return 100 * (1 - r.Access.SizeByBytes.FracAtOrBelow(1<<20)) }),
	tc("fig3.opens_le_250ms_pct", "Fig3: opens <= 0.25 s", "%.1f", about(75), func(r *TraceResult) float64 { return 100 * r.Access.OpenTimes.FracAtOrBelow(0.25) }),
	tc("fig4.files_lt_30s_pct", "Fig4: files living < 30 s", "%.1f", says("65-80"), func(r *TraceResult) float64 { return r.Lifetime.PctFilesUnder30s() }),
	tc("fig4.bytes_lt_30s_pct", "Fig4: bytes living < 30 s", "%.1f", says("4-27"), func(r *TraceResult) float64 { return r.Lifetime.PctBytesUnder30s() }),

	spread(tc("t10.cws_pct", "concurrent write-sharing", "%.2f", says("0.34 (0.18-0.56)"), func(r *TraceResult) float64 { return r.Actions.PctCWS() })),
	spread(tc("t10.recall_pct", "server recall", "%.2f", says("1.7 (0.79-3.35)"), func(r *TraceResult) float64 { return r.Actions.PctRecalls() })),
	tc("t10.file_opens", "file opens in the trace", "%.0f", nil, func(r *TraceResult) float64 { return float64(r.Actions.FileOpens) }),

	tc("t11.60s.errors", "60-s: errors", "%.0f", nil, func(r *TraceResult) float64 { return float64(r.Stale60.Errors) }),
	tc("t11.60s.errors_per_hour", "60-s: errors/hour", "%.2f", num(18), func(r *TraceResult) float64 { return r.Stale60.ErrorsPerHour }),
	tc("t11.60s.users_pct", "60-s: users affected (%)", "%.1f", num(48), func(r *TraceResult) float64 { return r.Stale60.PctUsersAffected() }),
	tc("t11.60s.opens_pct", "60-s: opens with error (%)", "%.3f", num(0.34), func(r *TraceResult) float64 { return r.Stale60.PctOpensWithError() }),
	tc("t11.60s.migrated_opens_pct", "60-s: migrated opens with error (%)", "%.3f", nil, func(r *TraceResult) float64 { return r.Stale60.PctMigratedOpensWithError() }),
	tc("t11.3s.errors", "3-s: errors", "%.0f", nil, func(r *TraceResult) float64 { return float64(r.Stale3.Errors) }),
	tc("t11.3s.errors_per_hour", "3-s: errors/hour", "%.2f", num(0.59), func(r *TraceResult) float64 { return r.Stale3.ErrorsPerHour }),
	tc("t11.3s.users_pct", "3-s: users affected (%)", "%.1f", nil, func(r *TraceResult) float64 { return r.Stale3.PctUsersAffected() }),
	tc("t11.3s.opens_pct", "3-s: opens with error (%)", "%.3f", num(0.011), func(r *TraceResult) float64 { return r.Stale3.PctOpensWithError() }),
	tc("t11.3s.migrated_opens_pct", "3-s: migrated opens with error (%)", "%.3f", nil, func(r *TraceResult) float64 { return r.Stale3.PctMigratedOpensWithError() }),
}, overheadCells())

// accessCells are Table 3's: each class's share of accesses and bytes, and
// its whole-file / other sequential / random split.
func accessCells() []cell {
	abbr := [analysis.NumClasses]string{"RO", "WO", "RW"}
	seqs := [analysis.NumSeqs]string{"whole-file", "other-sequential", "random"}
	classPaper := [analysis.NumClasses][2]*ref{{num(88), num(80)}, {num(11), num(19)}, {num(1), nil}}
	wholePaper := [analysis.NumClasses][2]*ref{{num(78), num(89)}, {num(67), num(69)}, {nil, nil}}
	var cells []cell
	for class := 0; class < analysis.NumClasses; class++ {
		id := "t3." + strings.ToLower(abbr[class])
		cells = append(cells,
			tc(id+".acc_pct", analysis.ClassNames[class]+" accesses", "%.1f", classPaper[class][0],
				func(r *TraceResult) float64 { a, _ := r.Access.ClassPct(class); return a }),
			tc(id+".bytes_pct", analysis.ClassNames[class]+" bytes", "%.1f", classPaper[class][1],
				func(r *TraceResult) float64 { _, b := r.Access.ClassPct(class); return b }))
		for seq := 0; seq < analysis.NumSeqs; seq++ {
			var paper [2]*ref
			if seq == analysis.WholeFile {
				paper = wholePaper[class]
			}
			sid := id + "." + strings.ReplaceAll(seqs[seq], "-", "_")
			label := abbr[class] + " " + seqs[seq]
			cells = append(cells,
				tc(sid+".acc_pct", label+" (accesses)", "%.1f", paper[0],
					func(r *TraceResult) float64 { a, _ := r.Access.SeqPct(class, seq); return a }),
				tc(sid+".bytes_pct", label+" (bytes)", "%.1f", paper[1],
					func(r *TraceResult) float64 { _, b := r.Access.SeqPct(class, seq); return b }))
		}
	}
	return cells
}

// overheadCells are Table 12's: each algorithm's bytes and RPCs over the
// application's. The paper's note on each rides on the RPC cell.
func overheadCells() []cell {
	notes := [consistency.NumAlgs]string{"exactly 1.0 by construction", "~same as Sprite", "~2% fewer bytes, ~20% fewer RPCs"}
	var cells []cell
	for a := 0; a < consistency.NumAlgs; a++ {
		name := consistency.AlgNames[a]
		id := "t12." + strings.ReplaceAll(name, "-", "_")
		cells = append(cells,
			tc(id+".byte_ratio", name, "%.3f", nil, func(r *TraceResult) float64 { return r.Overhead.ByteRatio(a) }),
			tc(id+".rpc_ratio", name+" RPC ratio", "%.3f", says(notes[a]), func(r *TraceResult) float64 { return r.Overhead.RPCRatio(a) }))
	}
	return cells
}

var traceTables = []table{
	{title: "Table 1. Overall trace statistics (measured | paper where legible)", headers: []string{"Metric"}, perTrace: true, rows: [][]string{
		{"t1.hours"}, {"t1.users"}, {"t1.migration_users"}, {"t1.mb_read"}, {"t1.mb_written"}, {"t1.mb_read_dirs"}, {"t1.opens"},
		{"t1.closes"}, {"t1.repositions"}, {"t1.deletes"}, {"t1.truncates"}, {"t1.shared_reads"}, {"t1.shared_writes"},
	}},
	{title: "Table 2. User activity", headers: []string{"Metric", "Measured", "Paper"}, rows: [][]string{
		{"t2.10m.avg_users"}, {"t2.10m.avg_kbs"}, {"t2.10m_mig.avg_kbs"}, {"t2.10m.peak_user_kbs"},
		{"t2.10s.avg_users"}, {"t2.10s.avg_kbs"}, {"t2.10s_mig.avg_kbs"}, {"t2.10s.peak_user_kbs"}, {"t2.bsd.10m_kbs"},
	}},
	{title: "Table 3. File access patterns (percent)", headers: []string{"Metric", "Measured", "Paper"}, rows: [][]string{
		{"t3.ro.acc_pct"}, {"t3.wo.acc_pct"}, {"t3.rw.acc_pct"}, {"t3.ro.bytes_pct"}, {"t3.wo.bytes_pct"},
		{"t3.ro.whole_file.acc_pct"}, {"t3.ro.whole_file.bytes_pct"}, {"t3.wo.whole_file.acc_pct"}, {"t3.wo.whole_file.bytes_pct"},
	}},
	{title: "Figures 1-4. Distribution checkpoints (percent)", headers: []string{"Metric", "Measured", "Paper"}, rows: [][]string{
		{"fig1.runs_le_10k_pct"}, {"fig1.bytes_gt_1m_pct"}, {"fig2.files_le_10k_pct"}, {"fig2.bytes_ge_1m_pct"},
		{"fig3.opens_le_250ms_pct"}, {"fig4.files_lt_30s_pct"}, {"fig4.bytes_lt_30s_pct"},
	}},
	{title: "Table 10. Consistency actions (percent of file opens)", headers: []string{"Action", "Measured", "Paper"}, rows: [][]string{
		{"t10.cws_pct"}, {"t10.recall_pct"},
	}},
	{title: "Table 11. Stale data errors under polling consistency", headers: []string{"Metric", "Measured", "Paper"}, rows: [][]string{
		{"t11.60s.errors_per_hour"}, {"t11.60s.users_pct"}, {"t11.60s.opens_pct"}, {"t11.3s.errors_per_hour"}, {"t11.3s.opens_pct"},
	}},
	{title: "Table 12. Consistency overheads (ratios to application traffic)", headers: []string{"Algorithm", "Bytes (measured)", "RPCs (measured)", "Paper note"}, rows: [][]string{
		{"t12.sprite.byte_ratio", "t12.sprite.rpc_ratio"},
		{"t12.modified_sprite.byte_ratio", "t12.modified_sprite.rpc_ratio"},
		{"t12.token.byte_ratio", "t12.token.rpc_ratio"},
	}},
}

// Section 5: the counter study, a cluster.Report plus the Ethernet's
// utilization.

var counterCells = slices.Concat([]cell{
	cc("t4.size.avg_kb", "avg cache size (KB)", "%.0f", about(7168), func(r *CounterResult) float64 { return r.Table4.AvgSizeKB }),
	cc("t4.size.sd_kb", "stddev over 15-min intervals (KB)", "%.0f", says("-"), func(r *CounterResult) float64 { return r.Table4.SDSizeKB }),
	cc("t4.size.max_kb", "max cache size (KB)", "%.0f", nil, func(r *CounterResult) float64 { return r.Table4.MaxSizeKB }),
	cc("t4.change15.avg_kb", "15-min change avg (KB)", "%.0f", num(493), func(r *CounterResult) float64 { return r.Table4.Change15AvgKB }),
	cc("t4.change15.max_kb", "15-min change max (KB)", "%.0f", num(21904), func(r *CounterResult) float64 { return r.Table4.Change15MaxKB }),
	cc("t4.change15.sd_kb", "15-min change stddev (KB)", "%.0f", nil, func(r *CounterResult) float64 { return r.Table4.Change15SDKB }),
	cc("t4.change60.avg_kb", "60-min change avg (KB)", "%.0f", num(1049), func(r *CounterResult) float64 { return r.Table4.Change60AvgKB }),
	cc("t4.change60.max_kb", "60-min change max (KB)", "%.0f", nil, func(r *CounterResult) float64 { return r.Table4.Change60MaxKB }),
	cc("t4.change60.sd_kb", "60-min change stddev (KB)", "%.0f", nil, func(r *CounterResult) float64 { return r.Table4.Change60SDKB }),
	cc("t4.active_intervals", "active 15-min machine-intervals", "%.0f", nil, func(r *CounterResult) float64 { return float64(r.Table4.ActiveIntervals15) }),

	cc("t5.file_read.pct", "cacheable file reads", "%.1f", about(32), func(r *CounterResult) float64 { return r.Table5.FileReadPct }),
	cc("t5.file_write.pct", "cacheable file writes", "%.1f", about(10), func(r *CounterResult) float64 { return r.Table5.FileWritePct }),
	cc("t5.paging.pct", "paging (all classes)", "%.1f", about(35), func(r *CounterResult) float64 { return r.Table5.PagingPct }),
	cc("t5.paging.cacheable_read.pct", "paging: code and initialized-data reads", "%.1f", nil, func(r *CounterResult) float64 { return r.Table5.PagingCacheableReadPct }),
	cc("t5.paging.backing_read.pct", "paging: backing-file reads", "%.1f", nil, func(r *CounterResult) float64 { return r.Table5.PagingBackingReadPct }),
	cc("t5.paging.backing_write.pct", "paging: backing-file writes", "%.1f", nil, func(r *CounterResult) float64 { return r.Table5.PagingBackingWritePct }),
	cc("t5.uncacheable.pct", "uncacheable (paging+shared+dirs)", "%.1f", about(20), func(r *CounterResult) float64 { return r.Table5.UncacheablePct }),
	cc("t5.shared.pct", "write-shared", "%.2f", says("<1"), func(r *CounterResult) float64 { return r.Table5.SharedReadPct + r.Table5.SharedWritePct }),
	cc("t5.shared_read.pct", "write-shared reads", "%.2f", nil, func(r *CounterResult) float64 { return r.Table5.SharedReadPct }),
	cc("t5.shared_write.pct", "write-shared writes", "%.2f", nil, func(r *CounterResult) float64 { return r.Table5.SharedWritePct }),
	cc("t5.dir_read.pct", "directory reads", "%.2f", about(1), func(r *CounterResult) float64 { return r.Table5.DirReadPct }),
	cc("t5.total_bytes", "bytes presented to the client kernels", "%.0f", nil, func(r *CounterResult) float64 { return float64(r.Table5.TotalBytes) }),

	cc("t6.file_read.miss_pct", "file read misses", "%.1f", num(41.4), func(r *CounterResult) float64 { return r.Table6.All.ReadMissPct }),
	cc("t6.file_read.miss_sd", "file read misses, SD across machines", "%.1f", nil, func(r *CounterResult) float64 { return r.Table6.All.SDReadMissPct }),
	cc("t6.read_traffic.miss_pct", "read miss traffic", "%.1f", num(37.1), func(r *CounterResult) float64 { return r.Table6.All.ReadMissTrafficPct }),
	cc("t6.read_traffic.miss_sd", "read miss traffic, SD across machines", "%.1f", nil, func(r *CounterResult) float64 { return r.Table6.All.SDReadMissTrafficPct }),
	cc("t6.writeback.pct", "writeback traffic", "%.1f", num(88.4), func(r *CounterResult) float64 { return r.Table6.All.WritebackPct }),
	cc("t6.writeback.sd", "writeback traffic, SD across machines", "%.1f", nil, func(r *CounterResult) float64 { return r.Table6.All.SDWritebackPct }),
	cc("t6.write_fetch.pct", "write fetches", "%.1f", num(1.2), func(r *CounterResult) float64 { return r.Table6.All.WriteFetchPct }),
	cc("t6.paging_read.miss_pct", "paging read misses", "%.1f", num(28.7), func(r *CounterResult) float64 { return r.Table6.All.PagingReadMissPct }),
	cc("t6.migrated.file_read.miss_pct", "file read misses (migrated)", "%.1f", num(22.2), func(r *CounterResult) float64 { return r.Table6.Migrated.ReadMissPct }),
	cc("t6.migrated.read_traffic.miss_pct", "read miss traffic (migrated)", "%.1f", num(31.7), func(r *CounterResult) float64 { return r.Table6.Migrated.ReadMissTrafficPct }),
	cc("t6.migrated.writeback.pct", "writeback traffic (migrated)", "%.1f", says("-"), nil),
	cc("t6.migrated.write_fetch.pct", "write fetches (migrated)", "%.1f", num(1.6), func(r *CounterResult) float64 { return r.Table6.Migrated.WriteFetchPct }),
	cc("t6.migrated.paging_read.miss_pct", "paging read misses (migrated)", "%.1f", num(8.8), func(r *CounterResult) float64 { return r.Table6.Migrated.PagingReadMissPct }),
	cc("t6.delete_saved.pct", "written bytes deleted in the cache (%)", "%.1f", nil, func(r *CounterResult) float64 { return r.Table6.BytesSavedByDeletePct }),
}, netClassCells(), []cell{
	cc("t7.paging.pct", "paging share (%)", "%.1f", about(35), func(r *CounterResult) float64 { return r.Table7.PagingPct }),
	cc("t7.shared.pct", "write-shared share (%)", "%.2f", about(1), func(r *CounterResult) float64 { return r.Table7.SharedPct }),
	cc("t7.read.pct", "server-to-client share (%)", "%.1f", nil, func(r *CounterResult) float64 { return r.Table7.ReadPct }),
	cc("t7.write.pct", "client-to-server share (%)", "%.1f", nil, func(r *CounterResult) float64 { return r.Table7.WritePct }),
	cc("t7.read_write_ratio", "non-paging read:write ratio", "%.2f", about(2), func(r *CounterResult) float64 { return r.Table7.ReadWriteRatio }),
	cc("t7.total_bytes", "bytes on the network", "%.0f", nil, func(r *CounterResult) float64 { return float64(r.Table7.TotalBytes) }),

	cc("t8.file.pct", "replaced by file data (%)", "%.1f", num(79.4), func(r *CounterResult) float64 { return r.Table8.FilePct }),
	cc("t8.vm.pct", "given to VM (%)", "%.1f", num(20.6), func(r *CounterResult) float64 { return r.Table8.VMPct }),
	cc("t8.age_min", "avg age at replacement (min)", "%.1f", says("71 (file) / 27 (vm)"), func(r *CounterResult) float64 { return r.Table8.AvgAgeMin }),
}, cleanCells(), []cell{
	cc("t10.server.cws_pct", "concurrent write-sharing", "%.2f", num(0.34), func(r *CounterResult) float64 { return r.Table10.CWSPct }),
	cc("t10.server.recall_pct", "server recall", "%.2f", num(1.7), func(r *CounterResult) float64 { return r.Table10.RecallPct }),
	cc("t10.server.file_opens", "file opens at the servers", "%.0f", nil, func(r *CounterResult) float64 { return float64(r.Table10.FileOpens) }),

	cc("net.util_pct", "Ethernet utilization (%)", "%.2f", says("~4% from paging alone"), func(r *CounterResult) float64 { return 100 * r.NetUtilization }),
	cc("storage.read_hit_pct", "server cache hit rate on client fetches (%)", "%.1f", nil, func(r *CounterResult) float64 { return r.Storage.ReadHitPct }),
	cc("storage.disk_reads", "server disk reads", "%.0f", nil, func(r *CounterResult) float64 { return float64(r.Storage.DiskReads) }),
	cc("storage.disk_writes", "server disk writes", "%.0f", nil, func(r *CounterResult) float64 { return float64(r.Storage.DiskWrites) }),
	cc("storage.disk_busy_s", "server disk busy (s)", "%.1f", nil, func(r *CounterResult) float64 { return r.Storage.DiskBusy.Seconds() }),

	cc("stale.reads", "stale reads served (poll mode)", "%.0f", nil, func(r *CounterResult) float64 { return float64(r.Stale.StaleReads) }),
	cc("stale.bytes", "stale bytes served (poll mode)", "%.0f", nil, func(r *CounterResult) float64 { return float64(r.Stale.StaleBytes) }),
	cc("stale.poll_rpcs", "poll RPCs", "%.0f", nil, func(r *CounterResult) float64 { return float64(r.Stale.PollRPCs) }),

	cc("recovery.server_crashes", "server crashes", "%.0f", nil, func(r *CounterResult) float64 { return float64(r.Recovery.ServerCrashes) }),
	cc("recovery.client_crashes", "client crashes", "%.0f", nil, func(r *CounterResult) float64 { return float64(r.Recovery.ClientCrashes) }),
	cc("recovery.opens_lost", "opens lost in crash", "%.0f", nil, func(r *CounterResult) float64 { return float64(r.Recovery.OpensLostInCrash) }),
	cc("recovery.dirty_bytes_lost", "dirty bytes lost", "%.0f", nil, func(r *CounterResult) float64 { return float64(r.Recovery.DirtyBytesLost) }),
	cc("recovery.max_dirty_age_s", "max dirty age lost (s)", "%.3f", nil, func(r *CounterResult) float64 { return r.Recovery.MaxDirtyAge.Seconds() }),
	cc("recovery.recoveries", "recoveries", "%.0f", nil, func(r *CounterResult) float64 { return float64(r.Recovery.Recoveries) }),
	cc("recovery.reopens", "recovery reopens", "%.0f", nil, func(r *CounterResult) float64 { return float64(r.Recovery.RecoveryOpens) }),
	cc("recovery.cws", "write-sharing found in recovery", "%.0f", nil, func(r *CounterResult) float64 { return float64(r.Recovery.RecoveryCWS) }),
	cc("recovery.replayed_bytes", "recovery replayed bytes", "%.0f", nil, func(r *CounterResult) float64 { return float64(r.Recovery.ReplayedBytes) }),
	cc("recovery.retries", "recovery retries", "%.0f", nil, func(r *CounterResult) float64 { return float64(r.Recovery.RecoveryRetries) }),
	cc("recovery.gave_up", "recovery gave up", "%.0f", nil, func(r *CounterResult) float64 { return float64(r.Recovery.GaveUp) }),
	cc("recovery.reconsistency_s", "time to reconsistency (s)", "%.3f", nil, func(r *CounterResult) float64 { return r.Recovery.MaxTimeToReconsistency.Seconds() }),
	cc("recovery.dropped_rpcs", "rpcs dropped", "%.0f", nil, func(r *CounterResult) float64 { return float64(r.Recovery.DroppedOps) }),
	cc("recovery.retransmits", "rpcs retransmitted", "%.0f", nil, func(r *CounterResult) float64 { return float64(r.Recovery.Retransmits) }),
	cc("recovery.stalled_rpcs", "rpcs stalled", "%.0f", nil, func(r *CounterResult) float64 { return float64(r.Recovery.StalledOps) }),
	cc("recovery.stall_s", "stall time (s)", "%.3f", nil, func(r *CounterResult) float64 { return r.Recovery.StallTime.Seconds() }),
})

// netClassCells are Table 7's per-class shares of the network's bytes.
func netClassCells() []cell {
	var cells []cell
	for c := netsim.Class(0); c < netsim.NumClasses; c++ {
		cells = append(cells, cc("t7."+strings.ReplaceAll(c.String(), "-", "_")+".pct", c.String()+" share (%)", "%.1f", nil,
			func(r *CounterResult) float64 { return r.Table7.ClassPct[c] }))
	}
	return cells
}

// cleanCells are Table 9's: each cleaning reason's share of the blocks
// written back and their mean age. The paper has no evict or recover row;
// those print 0.0 in its column.
func cleanCells() []cell {
	pct := [fscache.NumCleanReasons]float64{75, 12, 12, 1.3, 0, 0}
	age := [fscache.NumCleanReasons]float64{47.6, 16.2, 11.9, 0, 0, 0}
	var cells []cell
	for reason := fscache.CleanReason(0); reason < fscache.NumCleanReasons; reason++ {
		id := "t9." + reason.String()
		cells = append(cells,
			cc(id+".pct", reason.String(), "%.1f", num(pct[reason]), func(r *CounterResult) float64 { return r.Table9.Pct[reason] }),
			cc(id+".age_s", reason.String()+" age (s)", "%.1f", num(age[reason]), func(r *CounterResult) float64 { return r.Table9.AgeSec[reason] }))
	}
	return cells
}

var counterTables = []table{
	{title: "Table 4. Client cache sizes", headers: []string{"Metric", "Measured", "Paper"}, rows: [][]string{
		{"t4.size.avg_kb"}, {"t4.size.sd_kb"}, {"t4.change15.avg_kb"}, {"t4.change15.max_kb"}, {"t4.change60.avg_kb"},
	}},
	{title: "Table 5. Raw traffic sources (percent of bytes)", headers: []string{"Source", "Measured", "Paper"}, rows: [][]string{
		{"t5.file_read.pct"}, {"t5.file_write.pct"}, {"t5.paging.pct"}, {"t5.uncacheable.pct"}, {"t5.shared.pct"}, {"t5.dir_read.pct"},
	}},
	{title: "Table 6. Client cache effectiveness (percent)", headers: []string{"Metric", "Measured", "Paper", "Measured-migrated", "Paper-migrated"}, rows: [][]string{
		{"t6.file_read.miss_pct", "t6.migrated.file_read.miss_pct"},
		{"t6.read_traffic.miss_pct", "t6.migrated.read_traffic.miss_pct"},
		{"t6.writeback.pct", "t6.migrated.writeback.pct"},
		{"t6.write_fetch.pct", "t6.migrated.write_fetch.pct"},
		{"t6.paging_read.miss_pct", "t6.migrated.paging_read.miss_pct"},
	}},
	{title: "Table 7. Server traffic", headers: []string{"Metric", "Measured", "Paper"}, rows: [][]string{
		{"t7.paging.pct"}, {"t7.shared.pct"}, {"t7.read_write_ratio"},
	}},
	{title: "Table 8. Cache block replacement", headers: []string{"Metric", "Measured", "Paper"}, rows: [][]string{
		{"t8.file.pct"}, {"t8.vm.pct"}, {"t8.age_min"},
	}},
	{title: "Table 9. Dirty block cleaning", headers: []string{"Reason", "Measured %", "Paper %", "Measured age (s)", "Paper age (s)"}, rows: [][]string{
		{"t9.delay.pct", "t9.delay.age_s"}, {"t9.fsync.pct", "t9.fsync.age_s"}, {"t9.recall.pct", "t9.recall.age_s"},
		{"t9.vm.pct", "t9.vm.age_s"}, {"t9.evict.pct", "t9.evict.age_s"}, {"t9.recover.pct", "t9.recover.age_s"},
	}},
	{title: "Table 10 (server counters cross-check)", headers: []string{"Action", "Measured %", "Paper %"}, rows: [][]string{
		{"t10.server.cws_pct"}, {"t10.server.recall_pct"},
	}},
}
