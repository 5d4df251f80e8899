package core

import (
	"fmt"
	"strings"
	"time"

	"spritefs/internal/stats"
)

// TraceReport renders every Section 4 table/figure plus Tables 10-12 for a
// set of trace results.
func TraceReport(results []*TraceResult) string {
	var b strings.Builder
	for i := range traceTables {
		b.WriteString(traceTables[i].render(results, nil).String())
		b.WriteString("\n")
	}
	return b.String()
}

// TraceDetail renders every Section 4 cell TraceReport does not print.
func TraceDetail(results []*TraceResult) *stats.Table {
	return detail("Section 4 detail: the cells the tables above leave out", traceCells, traceTables, results, nil)
}

// CounterTables renders Tables 4-9 (and the servers' Table 10 cross-check)
// from a counter study, then the network and server-storage summary.
func CounterTables(r *CounterResult) string {
	var b strings.Builder
	for i := range counterTables {
		b.WriteString(counterTables[i].render(nil, r).String())
		b.WriteString("\n")
	}
	m := func(id string) string { return catalog[id].measured(nil, r) }
	fmt.Fprintf(&b, "Network utilization: %s%% of the Ethernet (paper: %s)\n",
		m("net.util_pct"), catalog["net.util_pct"].paper.text)
	fmt.Fprintf(&b, "Server caches: %s%% hit rate on client fetches; %s disk reads, %s disk writes\n",
		m("storage.read_hit_pct"), m("storage.disk_reads"), m("storage.disk_writes"))
	return b.String()
}

// CounterDetail renders every Section 5 cell CounterTables' tables do not
// print.
func CounterDetail(r *CounterResult) *stats.Table {
	return detail("Section 5 detail: the cells the tables above leave out", counterCells, counterTables, nil, r)
}

// FaultTables renders the data-at-risk study: one row per writeback-delay
// setting, the Section 6 reliability argument as measured numbers. The
// "max dirty age" column is the claim itself — no destroyed byte was dirty
// longer than the delayed-write window plus one cleaner period.
func FaultTables(r *FaultResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fault schedule (%0.1fh run): %s\n\n", r.Hours, r.Schedule)
	t := stats.NewTable("Data at risk under server crashes, by delayed-write window",
		"writeback", "crashes", "dirty bytes lost", "max dirty age", "replayed", "reopen storm", "reconsistency")
	for _, row := range r.Rows {
		rec := row.Recovery
		t.AddRow(row.WritebackDelay.String(),
			fmt.Sprintf("%d", rec.ServerCrashes+rec.ClientCrashes),
			stats.FmtBytes(rec.DirtyBytesLost),
			rec.MaxDirtyAge.Round(time.Millisecond).String(),
			stats.FmtBytes(rec.ReplayedBytes),
			fmt.Sprintf("%d", rec.RecoveryOpens),
			rec.MaxTimeToReconsistency.Round(time.Millisecond).String())
	}
	b.WriteString(t.String())
	b.WriteString("\nBound: max dirty age <= max(client writeback delay, server 30s delay) + 5s cleaner period.\n" +
		"Shrinking the client window shifts risk to the server cache (lost bytes stay flat);\n" +
		"growing it moves dirty data back to clients, where recovery replay can save it.\n")
	return b.String()
}
