package harness

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
)

// Metric is one measured value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is what one run of one workload reports; it is the JSON object a
// run prints as the last line of its standard output.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// MetricSpec declares one metric in BENCHMARK.json. Bound is only set for
// end-to-end metrics: the share of the baseline's median by which the
// metric may worsen before it counts as a regression.
type MetricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// WorkloadSpec names one workload and why it is in the benchmark.
type WorkloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// Spec is BENCHMARK.json.
type Spec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []WorkloadSpec `json:"workloads"`
	EndToEnd   []MetricSpec   `json:"end_to_end"`
	PerLayer   []MetricSpec   `json:"per_layer"`
}

// NameRE is the shape of a workload or metric name.
var NameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func loadJSON[T any](path string) (*T, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var v T
	if err := json.Unmarshal(b, &v); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &v, nil
}

// LoadSpec reads and parses BENCHMARK.json.
func LoadSpec(path string) (*Spec, error) { return loadJSON[Spec](path) }

// WorkloadRun is one workload's part of a RunSet: the untraced pass's
// end-to-end metrics and, when the traced pass ran, its per-layer metrics.
type WorkloadRun struct {
	Name string `json:"name"`
	// Digest is the SHA-256 of everything the simulated program reported
	// (registry dumps or rendered tables); empty for wall-clock workloads,
	// whose output is not a function of the seed alone.
	Digest   string  `json:"digest,omitempty"`
	EndToEnd *Result `json:"end_to_end"`
	PerLayer *Result `json:"per_layer,omitempty"`
}

// RunSet is the file `spritebench all -json` writes and `spritebench
// compare` reads: every workload of one commit on one host.
type RunSet struct {
	Host       string `json:"host"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       int64  `json:"seed"`
	// Runs is how many untraced runs, of seeds Seed..Seed+Runs-1, each
	// end-to-end value is the median of.
	Runs      int           `json:"runs"`
	Seconds   float64       `json:"seconds"`
	Workloads []WorkloadRun `json:"workloads"`
}

// LoadRunSet reads a RunSet file.
func LoadRunSet(path string) (*RunSet, error) { return loadJSON[RunSet](path) }
