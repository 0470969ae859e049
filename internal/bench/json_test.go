package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func regressionBaseline() *JSONReport {
	return &JSONReport{
		Parallelism: 1,
		NumCPU:      1,
		Results: []JSONResult{
			{Name: "wc", Runs: 10, Seconds: 1.0},  // 0.1 s/run
			{Name: "grep", Runs: 4, Seconds: 2.0}, // 0.5 s/run
			{Name: "degenerate", Runs: 0, Seconds: 0},
		},
	}
}

func TestCheckRegressionWithinFactor(t *testing.T) {
	results := []*BenchResult{
		{Name: "wc", Runs: 2, Seconds: 0.35},       // 0.175 s/run, 1.75x — inside 2x
		{Name: "grep", Runs: 1, Seconds: 0.4},      // faster than baseline
		{Name: "newbench", Runs: 3, Seconds: 99},   // absent from baseline: skipped
		{Name: "degenerate", Runs: 1, Seconds: 99}, // zero-run baseline: skipped
	}
	if err := CheckRegression(results, regressionBaseline(), 2.0); err != nil {
		t.Errorf("unexpected regression: %v", err)
	}
}

func TestCheckRegressionFlagsSlowdown(t *testing.T) {
	results := []*BenchResult{
		{Name: "wc", Runs: 2, Seconds: 0.5},   // 0.25 s/run, 2.5x over baseline
		{Name: "grep", Runs: 1, Seconds: 1.2}, // 2.4x over baseline
	}
	err := CheckRegression(results, regressionBaseline(), 2.0)
	if err == nil {
		t.Fatal("2.5x and 2.4x per-run slowdowns not flagged")
	}
	// Every offender must be named, not just the first.
	for _, name := range []string{"wc", "grep"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("regression error omits %s: %v", name, err)
		}
	}
}

func TestReadReportRoundTrip(t *testing.T) {
	results := []*BenchResult{{Name: "wc", CLines: 10, Runs: 2, AvgIL: 100, AvgILAfter: 110, Seconds: 0.25}}
	data, err := MarshalResults(results, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "report.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := ReadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 1 || rep.Results[0].Name != "wc" || rep.Results[0].Seconds != 0.25 {
		t.Errorf("round-tripped report %+v", rep)
	}
	if _, err := ReadReport(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("reading a missing report must fail")
	}
}
