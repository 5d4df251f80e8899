package workloads

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"time"

	"spritefs/internal/metrics"
)

// layerCounts accumulates the per-layer counts a pass reads off the
// program's metric registries. Keys are per-layer metric names; ratios are
// kept as numerator and denominator until finish.
type layerCounts struct {
	m map[string]float64

	readOps, readMisses       int64
	storeReads, storeMisses   int64
	netBusy, netElapsed       time.Duration
	clientWBBytes, srvWBBytes int64
	abortedOps                int64
}

func newLayerCounts() *layerCounts { return &layerCounts{m: make(map[string]float64)} }

var scopeAll = metrics.L("scope", "all")

// addRegistry reads one finished simulation's registry. networks is how
// many Ethernet segments registered into it and horizon how long each was
// measured, which together turn busy time into a utilization.
func (lc *layerCounts) addRegistry(reg *metrics.Registry, networks int, horizon time.Duration) {
	sum := func(key, family string, sel ...metrics.Label) {
		lc.m[key] += float64(reg.SumInt(family, sel...))
	}
	sum("workload.programs", "spritefs_workload_programs_total")
	sum("workload.sessions", "spritefs_workload_sessions_total")
	sum("workload.migrations", "spritefs_workload_migrations_total")
	sum("fscache.read_ops", "spritefs_cache_read_ops_total", scopeAll)
	sum("fscache.write_ops", "spritefs_cache_write_ops_total", scopeAll)
	sum("fscache.cleaned_blocks", "spritefs_cache_cleaned_total")
	sum("fscache.replaced_blocks", "spritefs_cache_replaced_file_total")
	sum("fscache.replaced_blocks", "spritefs_cache_replaced_vm_total")
	sum("fscache.delete_saved_bytes", "spritefs_cache_delete_saved_bytes_total")
	sum("vm.paged_in_bytes", "spritefs_vm_paged_in_bytes_total")
	sum("netsim.rpcs", "spritefs_net_ops_total")
	sum("netsim.bytes", "spritefs_net_bytes_total")
	sum("server.file_opens", "spritefs_server_file_opens_total")
	sum("server.recalls", "spritefs_server_recalls_total")
	sum("server.cws_events", "spritefs_server_cws_events_total")
	sum("server.disk_ops", "spritefs_server_store_disk_reads_total")
	sum("server.disk_ops", "spritefs_server_store_disk_writes_total")
	sum("replay.records_applied", "spritefs_replay_records_applied_total")
	sum("replay.bootstrapped_files", "spritefs_replay_bootstrapped_files_total")
	lc.m["metrics.instances"] += float64(reg.Len())
	if n := float64(len(reg.Families())); n > lc.m["metrics.families"] {
		lc.m["metrics.families"] = n
	}

	lc.readOps += reg.SumInt("spritefs_cache_read_ops_total", scopeAll)
	lc.readMisses += reg.SumInt("spritefs_cache_read_misses_total", scopeAll)
	lc.storeReads += reg.SumInt("spritefs_server_store_read_blocks_total")
	lc.storeMisses += reg.SumInt("spritefs_server_store_read_miss_blocks_total")
	lc.netBusy += reg.SumSeconds("spritefs_net_busy_seconds")
	lc.netElapsed += time.Duration(networks) * horizon
	lc.clientWBBytes += reg.SumInt("spritefs_client_writeback_rpc_bytes_total")
	lc.srvWBBytes += reg.SumInt("spritefs_server_writeback_bytes_total")
	lc.abortedOps += reg.SumInt("spritefs_workload_aborted_ops_total")
}

// finish derives the ratios and returns the metric map.
func (lc *layerCounts) finish() map[string]float64 {
	ratio := func(key string, num, den float64) {
		if den > 0 {
			lc.m[key] = num / den
		}
	}
	if _, set := lc.m["fscache.read_hit_ratio"]; !set {
		ratio("fscache.read_hit_ratio", float64(lc.readOps-lc.readMisses), float64(lc.readOps))
	}
	ratio("server.store_read_miss_ratio", float64(lc.storeMisses), float64(lc.storeReads))
	ratio("netsim.utilization", lc.netBusy.Seconds(), lc.netElapsed.Seconds())
	return lc.m
}

// writebackProblem checks that every byte the clients shipped as writeback
// RPCs was accepted by a server: after the drain the two sides' counters
// must agree. Registries that skip the per-client families (lean metrics)
// have nothing to compare.
func (lc *layerCounts) writebackProblem() string {
	if lc.clientWBBytes == 0 || lc.clientWBBytes == lc.srvWBBytes {
		return ""
	}
	return fmt.Sprintf("clients wrote back %d bytes but servers accepted %d", lc.clientWBBytes, lc.srvWBBytes)
}

// digester hashes everything a simulated pass reported, so that two passes
// of one seed can be held to bit-identical output.
type digester struct{ h hash.Hash }

func newDigester() digester { return digester{sha256.New()} }

// addRegistry hashes the registry's full TSV dump.
func (d digester) addRegistry(reg *metrics.Registry) error {
	return reg.WriteTSV(d.h)
}

func (d digester) addString(s string) { d.h.Write([]byte(s)) }

func (d digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }
