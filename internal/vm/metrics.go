package vm

import "spritefs/internal/metrics"

// RegisterMetrics registers the paging counters of a population of VM
// systems into the central registry: one column per counter over p,
// member i being the system at(i). Per-class byte counters carry a class
// label (code/init-data/heap/stack) and a direction in the name, feeding
// the paging rows of Tables 5 and 7.
func RegisterMetrics(r *metrics.Registry, p *metrics.Population, at func(i int) *System) {
	for c := PageClass(0); c < NumPageClasses; c++ {
		cls := metrics.Labels{metrics.L("class", c.String())}
		r.IntColumn(metrics.Desc{Name: "spritefs_vm_paged_in_bytes_total", Unit: "bytes",
			Help: "Bytes paged in, by page class: code and init-data arrive through the file cache, heap and stack from backing files (Table 5 paging rows).",
			Kind: metrics.Counter},
			p, cls, func(i int) int64 { return at(i).st.BytesIn[c] })
		r.IntColumn(metrics.Desc{Name: "spritefs_vm_paged_out_bytes_total", Unit: "bytes",
			Help: "Bytes paged out to backing files, by page class (Table 5 backing-write row).",
			Kind: metrics.Counter},
			p, cls, func(i int) int64 { return at(i).st.BytesOut[c] })
	}
	ctr := func(name, unit, help string, v func(st *Stats) int64) {
		r.IntColumn(metrics.Desc{Name: name, Unit: unit, Help: help, Kind: metrics.Counter},
			p, nil, func(i int) int64 { return v(&at(i).st) })
	}
	ctr("spritefs_vm_evictions_total", "pages",
		"Pages evicted under memory pressure.", func(st *Stats) int64 { return st.Evictions })
	ctr("spritefs_vm_refaults_total", "pages",
		"Backing pages faulted back in after eviction (the steady Section 5.3 backing traffic).", func(st *Stats) int64 { return st.Refaults })
	ctr("spritefs_vm_code_reuse_total", "pages",
		"Code pages reused from the retained pool without I/O.", func(st *Stats) int64 { return st.CodeReuse })
}
