package bench

import (
	"strings"
	"testing"
)

// quickConfig runs the experiment with few profiling runs to keep test
// time down; table-shape assertions do not need the full input set.
func quickConfig() Config {
	cfg := DefaultConfig()
	cfg.MaxRuns = 2
	return cfg
}

func TestRunOneGrep(t *testing.T) {
	r, err := RunOne(Get("grep"), quickConfig())
	if err != nil {
		t.Fatalf("RunOne: %v", err)
	}
	if r.Name != "grep" || r.Runs != 2 {
		t.Errorf("row = %+v", r)
	}
	if r.AvgIL <= 0 || r.AvgControl <= 0 {
		t.Error("empty dynamic counts")
	}
	if r.Classes.TotalStatic() == 0 {
		t.Error("no call sites classified")
	}
	// grep is call-intensive: the expander must eliminate a majority.
	if r.CallDec < 0.3 {
		t.Errorf("grep call decrease = %.2f, expected substantial", r.CallDec)
	}
	if r.CodeInc < 0 || r.CodeInc > 0.5 {
		t.Errorf("grep code increase = %.2f, out of the capped range", r.CodeInc)
	}
	if r.ILPerCall <= 0 || r.CTPerCall <= 0 {
		t.Error("per-call densities missing")
	}
}

func TestRunOneCallLightPrograms(t *testing.T) {
	// tee (all external calls) and wc (almost no calls) must see ~zero
	// elimination, as the paper reports.
	for _, name := range []string{"tee", "wc"} {
		r, err := RunOne(Get(name), quickConfig())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if r.CallDec > 0.05 {
			t.Errorf("%s: call dec = %.3f, want ~0", name, r.CallDec)
		}
		if r.CodeInc > 0.02 {
			t.Errorf("%s: code inc = %.3f, want ~0", name, r.CodeInc)
		}
	}
}

func TestPostMixSumsToOne(t *testing.T) {
	r, err := RunOne(Get("eqn"), quickConfig())
	if err != nil {
		t.Fatalf("RunOne: %v", err)
	}
	sum := r.PostMix[0] + r.PostMix[1] + r.PostMix[2] + r.PostMix[3]
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("post-inline mix sums to %.4f, want 1", sum)
	}
}

func TestTablesRenderAllRows(t *testing.T) {
	results := []*BenchResult{}
	for _, name := range []string{"cmp", "tee"} {
		r, err := RunOne(Get(name), quickConfig())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		results = append(results, r)
	}
	all := AllTables(results)
	for _, frag := range []string{
		"Table 1", "Table 2", "Table 3", "Table 4",
		"Post-inline dynamic call mix",
		"cmp", "tee", "AVG", "SD",
		"code inc", "call dec", "IL's per call", "CT's per call",
		"external", "pointer", "unsafe", "safe",
	} {
		if !strings.Contains(all, frag) {
			t.Errorf("tables missing %q", frag)
		}
	}
	// Each table renders one line per benchmark.
	if strings.Count(Table4(results), "\n") < 5 {
		t.Errorf("Table 4 too short:\n%s", Table4(results))
	}
}

// TestTablesGolden pins the reproduction's tables: Tables 1-4 and the
// section 4.4 mix over the twelve programs at the paper's defaults, plus
// Table 4 for espresso inlined with predicted weights and for funcptrs
// under guarded expansion. Every program's dynamic IL, control
// transfers, calls, code growth and class mix is gated exactly, so any
// change to them is a reviewed diff. Refresh with `go test
// ./internal/bench -run TablesGolden -update`.
func TestTablesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every suite input twice")
	}
	suite, err := RunAll(DefaultConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	predicted := DefaultConfig()
	predicted.ProfileMode = "predicted"
	espresso, err := RunOne(Get("espresso"), predicted)
	if err != nil {
		t.Fatal(err)
	}
	// The guarded configuration of scripts/check_agreement.sh.
	guarded := DefaultConfig()
	guarded.Inline.WeightThreshold = 1
	guarded.Classify.WeightThreshold = 1
	guarded.Inline.SizeLimitFactor = 3.0
	guarded.Inline.DevirtThreshold = 0.9
	guarded.Inline.PartialInline = true
	guarded.Inline.MaxCalleeSize = 40
	funcptrs, err := RunOne(Get("funcptrs"), guarded)
	if err != nil {
		t.Fatal(err)
	}
	got := AllTables(suite) +
		"\nPredicted weights: ilbench -bench espresso -profile-mode predicted -table 4\n" +
		Table4([]*BenchResult{espresso}) +
		"\nGuarded expansion: ilbench -bench funcptrs -threshold 1 -sizelimit 3.0 -devirt-threshold 0.9 -partial-inline -maxcallee 40 -table 4\n" +
		Table4([]*BenchResult{funcptrs})
	checkGolden(t, "tables.golden", got)
}

func TestMeanSD(t *testing.T) {
	m, s := meanSD([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if m != 5 {
		t.Errorf("mean = %v, want 5", m)
	}
	if s < 1.99 || s > 2.01 {
		t.Errorf("sd = %v, want 2", s)
	}
	if m, s := meanSD(nil); m != 0 || s != 0 {
		t.Error("empty meanSD must be zero")
	}
}

func TestBenchmarkMetadata(t *testing.T) {
	names := SuiteNames()
	if len(names) != 12 {
		t.Fatalf("suite has %d benchmarks, want 12", len(names))
	}
	// funcptrs is registered (Get works, -bench funcptrs works) but kept
	// out of the paper's twelve-table suite.
	for _, n := range append(append([]string{}, names...), "funcptrs") {
		b := Get(n)
		if b == nil {
			t.Fatalf("benchmark %s missing", n)
		}
		if b.CLines() < 20 {
			t.Errorf("%s: only %d source lines", n, b.CLines())
		}
		if len(b.Inputs) == 0 {
			t.Errorf("%s: no inputs", n)
		}
		if b.InputDesc == "" {
			t.Errorf("%s: no input description", n)
		}
	}
	if Get("nonexistent") != nil {
		t.Error("Get of unknown benchmark must be nil")
	}
}

// TestRunCountsMatchPaper pins the runs column of Table 1 to the paper's
// values.
func TestRunCountsMatchPaper(t *testing.T) {
	want := map[string]int{
		"cccp": 20, "cmp": 16, "compress": 20, "eqn": 20, "espresso": 20,
		"grep": 20, "lex": 4, "make": 20, "tar": 14, "tee": 20, "wc": 20,
		"yacc": 8,
	}
	for name, runs := range want {
		if got := len(Get(name).Inputs); got != runs {
			t.Errorf("%s: %d runs, paper used %d", name, got, runs)
		}
	}
}
