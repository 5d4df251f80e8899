package workloads

import (
	"spritefs/bench/harness"
)

// RunSeconds is the measuring time BENCHMARK.json asks for; the reference
// sizes quoted in the README are the sizes at this value.
const RunSeconds = 15

// PassReps is how many times an untraced run executes the identical
// measured phase; it reports the timings of the fastest pass.
const PassReps = 3

// Modules are the program's packages the traced pass reports CPU for. A
// profile sample is charged to the innermost stack frame in one of them.
var Modules = []string{
	"sim", "workload", "client", "fscache", "vm", "netsim", "server", "cluster",
	"trace", "analysis", "consistency", "replay", "scale", "metrics", "live", "core",
}

// HarnessModule is the row the benchmark's own CPU (load generators,
// digests, bookkeeping) is charged to, so it is not mistaken for the
// program's or the runtime's.
const HarnessModule = "harness"

// cpuRows are the keys of the layer table's CPU rows, runtime background
// aside: the program's modules and the harness.
var cpuRows = append(append([]string(nil), Modules...), HarnessModule)

// EndToEnd declares the end-to-end metrics, measured with tracing off and
// reported by every workload. The timing bounds are the widest the contract
// allows because the reference host is a 2-vCPU microVM whose speed moves
// between two levels about a quarter apart, for seconds and at times for
// minutes: over ten seeds the spreads measured there are 2–14 % (README,
// "Steadiness"), and a set of runs that falls into a slow minute moves its
// median with it. peak_mem_mb of the garbage-heavy workloads moves up to
// 12 % with where collections happen to fall. Only the live heap after
// set-up repeats to a fraction of a percent, and it alone is bounded tightly.
var EndToEnd = []harness.MetricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "cpu_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "sat_rps", Unit: "req/s", Better: "higher", Bound: 0.25},
	{Name: "peak_mem_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "heap_kb_per_client", Unit: "KB", Better: "lower", Bound: 0.05},
}

// PerLayer declares the per-layer metrics of the traced pass. A metric a
// workload does not exercise reads 0 there.
var PerLayer = perLayerSpecs()

func perLayerSpecs() []harness.MetricSpec {
	var out []harness.MetricSpec
	add := func(better, unit string, names ...string) {
		for _, n := range names {
			out = append(out, harness.MetricSpec{Name: n, Unit: unit, Better: better})
		}
	}
	// Simulated counts: a speed-only change leaves them bit-identical, so
	// "better" only says which way a model change would be good news.
	add("higher", "count",
		"sim.events", "workload.programs", "workload.sessions", "workload.migrations",
		"fscache.read_ops", "fscache.write_ops", "netsim.rpcs", "server.file_opens",
		"trace.records", "consistency.shared_ops", "replay.records_applied",
		"replay.bootstrapped_files", "scale.routed_msgs", "live.requests")
	add("lower", "count",
		"fscache.cleaned_blocks", "fscache.replaced_blocks", "server.recalls",
		"server.cws_events", "server.disk_ops", "scale.rounds", "scale.null_advances",
		"scale.rescues", "scale.undelivered", "scale.msg_allocs",
		"metrics.families", "metrics.instances", "live.retries", "live.timeouts")
	add("lower", "bytes", "vm.paged_in_bytes", "netsim.bytes", "scale.routed_bytes")
	add("higher", "bytes", "fscache.delete_saved_bytes")
	add("higher", "ratio", "fscache.read_hit_ratio", "scale.parallel_speedup")
	add("lower", "ratio", "server.store_read_miss_ratio", "netsim.utilization",
		"scale.router_util", "scale.wan_util", "runtime.gc_cpu_share", "live.late_ratio")
	// Host time of a phase the harness brackets with a span.
	add("lower", "s",
		"cluster.build_s", "cluster.report_s", "trace.merge_s", "analysis.run_s",
		"consistency.sim_s", "scale.build_s", "scale.run_s", "scale.report_s",
		"metrics.snapshot_s")
	add("lower", "ns", "sim.ns_per_event", "analysis.ns_per_record", "netsim.wall_ns_per_rpc")
	add("higher", "req/s", "replay.records_per_s")
	// Layer drivers: one layer alone, public API only.
	add("lower", "ns",
		"sim.driver_ns_per_event", "client.driver_ns_per_op", "fscache.driver_hit_ns",
		"fscache.driver_miss_evict_ns", "fscache.driver_write_clean_ns",
		"netsim.driver_ns_per_rpc", "server.driver_open_close_ns", "metrics.driver_register_ns")
	add("higher", "Mrec/s", "trace.decode_mrec_per_s", "trace.encode_mrec_per_s")
	add("lower", "us", "live.tcp_roundtrip_p50_us", "live.overhead_p50_us", "live.overhead_p99_us")
	// The model's own outputs.
	add("lower", "ms", "scale.advance_mean_ms", "scale.remote_latency_mean_ms",
		"live.open_p50_ms", "live.p99_ms", "runtime.gc_pause_ms")
	add("lower", "%", "paper.err_pct", "runtime.profile_overhead_pct")
	add("lower", "1/krpc", "runtime.mallocs_per_krpc")
	add("higher", "count", "runtime.gomaxprocs")
	// CPU-profile samples by innermost frame.
	for _, m := range cpuRows {
		add("lower", "s", m+".cpu_s")
	}
	add("lower", "s", "runtime.background_cpu_s")
	return out
}

// Spec assembles BENCHMARK.json from the declarations above and the
// workload table; `spritebench spec` prints it and a test holds the
// committed file to it.
func Spec() *harness.Spec {
	s := &harness.Spec{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: RunSeconds,
		EndToEnd:   EndToEnd,
		PerLayer:   PerLayer,
	}
	for _, w := range All() {
		s.Workloads = append(s.Workloads, harness.WorkloadSpec{Name: w.Name(), Why: w.Why()})
	}
	return s
}
