package main

import (
	"bytes"
	"encoding/json"
	"os"
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

func TestBenchJSONOutput(t *testing.T) {
	code, out, errb := runBench(t, "-bench", "wc", "-runs", "1", "-json")
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
	if r.Runs != 1 || r.AvgILBefore <= 0 || r.AvgILAfter <= 0 || r.Seconds <= 0 {
		t.Errorf("implausible record: %+v", r)
	}
}

func TestBenchParallelMatchesSerial(t *testing.T) {
	_, serial, _ := runBench(t, "-bench", "grep", "-runs", "2", "-parallel", "1", "-table", "4")
	_, parallel, _ := runBench(t, "-bench", "grep", "-runs", "2", "-parallel", "4", "-table", "4")
	if serial != parallel {
		t.Errorf("-parallel changed the tables:\n%s\nvs\n%s", serial, parallel)
	}
}

func TestBenchBaselineGate(t *testing.T) {
	// Record a baseline from a real run, then gate against it: the same
	// workload must pass a generous factor and fail an absurdly strict one.
	code, out, errb := runBench(t, "-bench", "wc", "-runs", "1", "-json")
	if code != 0 {
		t.Fatalf("baseline run exit = %d (%s)", code, errb)
	}
	path := filepath.Join(t.TempDir(), "baseline.json")
	if err := os.WriteFile(path, []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
	code, _, errb = runBench(t, "-bench", "wc", "-runs", "1", "-baseline", path, "-maxregress", "1000")
	if code != 0 {
		t.Errorf("generous gate failed: exit %d (%s)", code, errb)
	} else if !strings.Contains(errb, "wall time within") {
		t.Errorf("passing gate should report success: %q", errb)
	}
	code, _, errb = runBench(t, "-bench", "wc", "-runs", "1", "-baseline", path, "-maxregress", "0.000001")
	if code == 0 || !strings.Contains(errb, "regression") {
		t.Errorf("impossible gate passed: exit %d (%s)", code, errb)
	}
	if code, _, errb = runBench(t, "-bench", "wc", "-runs", "1", "-baseline", "no-such-file.json"); code == 0 {
		t.Errorf("missing baseline file accepted: %s", errb)
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
