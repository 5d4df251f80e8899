package core

import (
	"fmt"
	"strings"

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
