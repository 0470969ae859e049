package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"strings"
	"testing"

	"inlinec/internal/bench"
)

func runBench(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestBenchSingleBenchmarkTable4(t *testing.T) {
	code, out, errb := runBench(t, "-bench", "tee", "-runs", "1", "-table", "4")
	if code != 0 {
		t.Fatalf("exit = %d (%s)", code, errb)
	}
	if !strings.Contains(out, "Table 4") || !strings.Contains(out, "tee") {
		t.Errorf("output = %q", out)
	}
	// tee must show 0% call decrease, the paper's result.
	if !strings.Contains(out, "0%") {
		t.Errorf("tee row should show 0%%: %q", out)
	}
}

func TestBenchAllTablesOneBenchmark(t *testing.T) {
	code, out, _ := runBench(t, "-bench", "wc", "-runs", "1", "-v")
	if code != 0 {
		t.Fatal("nonzero exit")
	}
	for _, frag := range []string{"Table 1", "Table 2", "Table 3", "Table 4", "Post-inline"} {
		if !strings.Contains(out, frag) {
			t.Errorf("missing %q", frag)
		}
	}
}

// TestBenchJSONOutput: the -json document holds only deterministic
// fields, so it is byte-identical at any -parallel.
func TestBenchJSONOutput(t *testing.T) {
	code, out, errb := runBench(t, "-bench", "wc", "-runs", "1", "-json", "-parallel", "1")
	if code != 0 {
		t.Fatalf("exit = %d (%s)", code, errb)
	}
	var rep bench.JSONReport
	if err := json.Unmarshal([]byte(out), &rep); err != nil {
		t.Fatalf("-json output is not valid JSON: %v\n%s", err, out)
	}
	if len(rep.Results) != 1 || rep.Results[0].Name != "wc" {
		t.Fatalf("results = %+v", rep.Results)
	}
	r := rep.Results[0]
	if r.Runs != 1 || r.AvgILBefore <= 0 || r.AvgILAfter <= 0 {
		t.Errorf("implausible record: %+v", r)
	}
	var doc any
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"seconds", "phases", "num_cpu", "parallelism", "engine", "profdb"} {
		if hasKey(doc, key) {
			t.Errorf("-json carries the machine-dependent key %q:\n%s", key, out)
		}
	}
	if _, par, _ := runBench(t, "-bench", "wc", "-runs", "1", "-json", "-parallel", "4"); par != out {
		t.Errorf("-parallel changed the -json document:\n%s\nvs\n%s", out, par)
	}
}

// hasKey reports whether key names a field of any object in a decoded
// JSON document.
func hasKey(doc any, key string) bool {
	switch v := doc.(type) {
	case map[string]any:
		for k, sub := range v {
			if k == key || hasKey(sub, key) {
				return true
			}
		}
	case []any:
		for _, sub := range v {
			if hasKey(sub, key) {
				return true
			}
		}
	}
	return false
}

func TestBenchParallelMatchesSerial(t *testing.T) {
	_, serial, _ := runBench(t, "-bench", "grep", "-runs", "2", "-parallel", "1", "-table", "4")
	_, parallel, _ := runBench(t, "-bench", "grep", "-runs", "2", "-parallel", "4", "-table", "4")
	if serial != parallel {
		t.Errorf("-parallel changed the tables:\n%s\nvs\n%s", serial, parallel)
	}
}

func TestBenchUnknownBenchmark(t *testing.T) {
	code, _, errb := runBench(t, "-bench", "nonesuch")
	if code == 0 || !strings.Contains(errb, "unknown benchmark") {
		t.Errorf("exit=%d err=%q", code, errb)
	}
}

func TestBenchBadFlag(t *testing.T) {
	if code, _, _ := runBench(t, "-nope"); code == 0 {
		t.Error("unknown flag must fail")
	}
}

// TestBenchUnknownTable: a -table value that names no table is rejected
// with exit 2 before any benchmark runs, instead of printing every table.
func TestBenchUnknownTable(t *testing.T) {
	for _, table := range []string{"9", "4X", ""} {
		code, out, errb := runBench(t, "-bench", "tee", "-runs", "1", "-table", table, "-v")
		if code != 2 || out != "" || !strings.Contains(errb, "unknown table") || strings.Contains(errb, "running") {
			t.Errorf("-table %q: exit = %d, stdout %q, stderr %q; want exit 2, no output and no run", table, code, out, errb)
		}
	}
}

// TestBenchProfileModes: ilbench shares the one -profile-mode parser.
// hybrid needs a profile database the suite does not have, so it is
// rejected up front like an unknown value, before anything runs.
func TestBenchProfileModes(t *testing.T) {
	for _, mode := range []string{"hybrid", "bogus"} {
		code, out, errb := runBench(t, "-bench", "wc", "-runs", "1", "-profile-mode", mode)
		if code != 2 || out != "" || !strings.Contains(errb, mode) {
			t.Errorf("-profile-mode %s: exit = %d, stdout %q, stderr %q; want exit 2 and a message naming the mode", mode, code, out, errb)
		}
	}
}

// TestBenchUnwritableOutputs: a profile file that cannot be created
// fails the command instead of being reported and ignored.
func TestBenchUnwritableOutputs(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no-such-dir", "out.pprof")
	for _, flag := range []string{"-memprofile", "-cpuprofile"} {
		code, _, errb := runBench(t, "-bench", "wc", "-runs", "1", "-table", "4", flag, missing)
		if code == 0 || !strings.Contains(errb, "no-such-dir") {
			t.Errorf("%s into a missing directory: exit = %d, stderr %q; want nonzero and the path", flag, code, errb)
		}
	}
}
