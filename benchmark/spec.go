package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricSpec is one metric of BENCHMARK.json.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "lower" or "higher"
	Bound  float64 `json:"bound,omitempty"`
}

// spec is BENCHMARK.json, the one place the workloads, the metrics, their
// units and their regression bounds are defined.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readSpec(path string) (*spec, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("benchmark definition: %w", err)
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	sp := &spec{}
	if err := dec.Decode(sp); err != nil {
		return nil, fmt.Errorf("benchmark definition %s: %w", path, err)
	}
	return sp, nil
}

// metrics returns the metrics a run reports: per-layer ones when traced,
// end-to-end ones otherwise.
func (sp *spec) metrics(trace bool) []metricSpec {
	if trace {
		return sp.PerLayer
	}
	return sp.EndToEnd
}

func (sp *spec) workloadNames() []string {
	names := make([]string, len(sp.Workloads))
	for i, w := range sp.Workloads {
		names[i] = w.Name
	}
	return names
}

// exactMetrics are the end-to-end metrics a run computes without timing
// anything: for one seed they must not change at all.
var exactMetrics = map[string]bool{"dyn_il_pct": true, "call_dec_pct": true, "code_size_pct": true}
