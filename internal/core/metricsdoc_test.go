package core

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMetricsDocDeterministic: the generator must emit identical bytes on
// every invocation, or the -check drift gate would flap.
func TestMetricsDocDeterministic(t *testing.T) {
	if MetricsDoc() != MetricsDoc() {
		t.Fatal("MetricsDoc output is not deterministic")
	}
}

// TestMetricsDocGolden is the drift gate in test form: the committed
// docs/METRICS.md must match what the registry generates. Regenerate with
// `go run ./cmd/metricsdoc` after adding or changing a metric.
func TestMetricsDocGolden(t *testing.T) {
	path := filepath.Join("..", "..", "docs", "METRICS.md")
	have, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden: %v (run `go run ./cmd/metricsdoc`)", err)
	}
	want := MetricsDoc()
	if string(have) != want {
		t.Fatalf("docs/METRICS.md is stale; run `go run ./cmd/metricsdoc` to regenerate")
	}
}

// TestMetricsDocCoversReportCounters: every counter family the Report
// projections read must appear in the generated reference — the issue's
// acceptance criterion that the docs cover cache, traffic, consistency and
// recovery counters.
func TestMetricsDocCoversReportCounters(t *testing.T) {
	doc := MetricsDoc()
	for _, name := range []string{
		// Table 5 / 6 cache families.
		"spritefs_cache_read_bytes_total",
		"spritefs_cache_write_bytes_total",
		"spritefs_cache_paging_read_bytes_total",
		// Table 7 traffic.
		"spritefs_net_bytes_total",
		"spritefs_net_ops_total",
		// Table 10 / consistency.
		"spritefs_server_file_opens_total",
		"spritefs_server_cws_events_total",
		"spritefs_server_recalls_total",
		"spritefs_client_stale_reads_total",
		// Recovery.
		"spritefs_client_recoveries_total",
		"spritefs_server_crashes_total",
		"spritefs_faults_server_crashes_total",
		"spritefs_client_max_lost_dirty_age_seconds",
		// Storage and VM.
		"spritefs_server_store_disk_reads_total",
		"spritefs_vm_paged_in_bytes_total",
		// Replay bookkeeping.
		"spritefs_replay_records_applied_total",
	} {
		if !strings.Contains(doc, "`"+name+"`") {
			t.Errorf("generated METRICS.md is missing %s", name)
		}
	}
}

// TestReferenceFamiliesHaveHelpAndUnits enforces the self-description
// contract: every family registers a non-empty help string, and every
// non-summary family a unit.
func TestReferenceFamiliesHaveHelpAndUnits(t *testing.T) {
	for _, f := range ReferenceFamilies() {
		if f.Desc.Help == "" {
			t.Errorf("%s has no help string", f.Desc.Name)
		}
		if f.Desc.Unit == "" {
			t.Errorf("%s has no unit", f.Desc.Name)
		}
	}
}
