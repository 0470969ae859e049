package main

import (
	"bytes"
	"math"
	"path/filepath"
	"strings"
	"testing"
)

func TestCutMatchesPythonQuantiles(t *testing.T) {
	// Expected values from Python's statistics.quantiles(data, n=4), except
	// that with two samples Python's quartiles (0.75 and 2.25) extrapolate
	// past the data and these stop at it.
	cases := []struct {
		data       []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 1, 7, 3, 5}, 2, 5, 8.5},
		{[]float64{3, 1, 2, 4}, 1.25, 2.5, 3.75},
		{[]float64{1, 2}, 1, 1.5, 2},
		{[]float64{4}, 4, 4, 4},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.data)
		if q1 != c.q1 || median(c.data) != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.data, q1, median(c.data), q3, c.q1, c.q2, c.q3)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Errorf("median of nothing should be NaN")
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, c := range []struct {
		n, p int
		ok   bool
	}{{99, 90, false}, {100, 90, true}, {19, 50, false}, {20, 50, true}} {
		if _, ok := percentile(seq(c.n), c.p); ok != c.ok {
			t.Errorf("p%d of %d samples reportable = %v, want %v", c.p, c.n, ok, c.ok)
		}
	}
	if v, _ := percentile(seq(100), 90); v != 90.9 {
		t.Errorf("p90 of 1..100 = %v, want 90.9", v)
	}
}

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "pipeline_s", Better: "lower", Bound: 0.1}
	higher := metricSpec{Name: "throughput", Better: "higher", Bound: 0.1}
	exact := metricSpec{Name: "call_dec_pct", Better: "higher", Bound: 0.1}
	for _, c := range []struct {
		m        metricSpec
		old, cur []float64
		want     string
	}{
		{lower, []float64{1, 1.01}, []float64{1.02, 1.03}, "same"},
		{lower, []float64{1, 1.01}, []float64{1.2, 1.21}, "worse"},
		{lower, []float64{1, 1.01}, []float64{0.8, 0.81}, "better"},
		{higher, []float64{1, 1.01}, []float64{0.8, 0.81}, "worse"},
		{lower, []float64{1, 2}, []float64{1.1, 2.1}, "unresolved"},
		{lower, []float64{1, 2}, []float64{0.5, 0.6}, "better"}, // every new run beats every old one
		{exact, []float64{50}, []float64{49.99}, "worse"},
		{exact, []float64{50}, []float64{50}, "same"},
	} {
		if got, _ := judge(c.m, c.old, c.cur); got != c.want {
			t.Errorf("judge(%s, %v, %v) = %s, want %s", c.m.Name, c.old, c.cur, got, c.want)
		}
	}
}

// TestBaselineJudgesItselfSame compares each recorded baseline run with
// the other recorded runs, the way a run of unchanged code is compared
// with the baseline: no row may read worse or unresolved.
func TestBaselineJudgesItselfSame(t *testing.T) {
	sp, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob("results/seed1-*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 5 {
		t.Fatalf("the baseline has %d runs; quartiles need at least 5", len(files))
	}
	for i, f := range files {
		rest := append(append([]string(nil), files[:i]...), files[i+1:]...)
		var out bytes.Buffer
		if compareFiles(sp, strings.Join(rest, ","), f, &out, &out) != 0 {
			t.Errorf("%s against the other baseline runs:\n%s", f, out.String())
		}
	}
}

func TestSeedDeterminesWorkload(t *testing.T) {
	sp, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range sp.workloadNames() {
		a, err := generate(name, 7, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := generate(name, 7, 2)
		c, _ := generate(name, 8, 2)
		if a.fingerprint() != b.fingerprint() {
			t.Errorf("%s: seed 7 generated two different workloads", name)
		}
		if a.fingerprint() == c.fingerprint() {
			t.Errorf("%s: seeds 7 and 8 generated the same workload", name)
		}
	}
	if _, err := generate("no-such-workload", 1, 0); err == nil {
		t.Errorf("an unknown workload should be an error")
	}
}

func TestSameSeedSameDeterministicMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("measures a workload twice")
	}
	var prev *workloadResult
	for i := 0; i < 2; i++ {
		r, err := measure("guarded-minimal", 3, config{seconds: 0.001, subset: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !r.correct() {
			t.Fatalf("run %d: %d failed: %v", i, r.Failed, r.Failures)
		}
		if prev != nil {
			if r.SHA256 != prev.SHA256 {
				t.Errorf("fingerprint changed between runs of one seed")
			}
			for name := range exactMetrics {
				if r.Metrics[name] != prev.Metrics[name] {
					t.Errorf("%s: %v then %v", name, prev.Metrics[name], r.Metrics[name])
				}
			}
		}
		prev = r
	}
	sp, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range sp.EndToEnd {
		if _, ok := prev.Metrics[m.Name]; !ok {
			t.Errorf("end-to-end metric %s was not measured", m.Name)
		}
	}
}

// TestSmokeTracedAllWorkloads runs every workload briefly on two programs
// of each kind through both the facade and the traced layer-by-layer path,
// which checks every output against the oracle and the traced modules
// against the facade's.
func TestSmokeTracedAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	sp, err := readSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range sp.workloadNames() {
		r, err := measure(name, 1, config{seconds: 0.001, trace: true, subset: 2})
		if err != nil {
			t.Fatal(err)
		}
		if !r.correct() {
			t.Errorf("%s: %d of %d failed: %v", name, r.Failed, r.Attempted, r.Failures)
		}
		for _, m := range sp.PerLayer {
			if _, ok := r.Metrics[m.Name]; !ok {
				t.Errorf("%s: per-layer metric %s was not measured", name, m.Name)
			}
		}
		if name == "guarded-minimal" && (r.Metrics["inline.partial"].Value == 0 || r.Metrics["inline.devirt"].Value == 0) {
			t.Errorf("guarded-minimal: partial %v, devirt %v; both must fire",
				r.Metrics["inline.partial"].Value, r.Metrics["inline.devirt"].Value)
		}
	}
}
