package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
)

// JSONResult is the machine-readable per-benchmark record `ilbench -json`
// emits, giving future changes a perf trajectory to compare against
// (see BENCH_baseline.json at the repository root).
type JSONResult struct {
	Name string `json:"name"`
	// Engine is the interpreter engine the run used ("bytecode" or
	// "switch"). Reports written before the bytecode engine existed omit
	// it; regression checks treat those rows as engine-agnostic.
	Engine string `json:"engine,omitempty"`
	// ProfileMode/SampleRate record the profiling instrumentation the run
	// used; reports written before reduced-mode profiling omit them, and
	// regression checks treat those rows as full-mode.
	ProfileMode string `json:"profile_mode,omitempty"`
	SampleRate  int    `json:"sample_rate,omitempty"`
	// ProfileEvents counts profiling counter increments across both
	// profiling passes; WeightErrPct is the sampled arc-weight error in
	// percent (0 for the exact modes). Unlike Seconds these are
	// deterministic, so they are directly comparable across machines.
	ProfileEvents int64   `json:"profile_events,omitempty"`
	WeightErrPct  float64 `json:"weight_err_pct,omitempty"`
	CLines        int     `json:"c_lines"`
	Runs          int     `json:"runs"`
	AvgILBefore   float64 `json:"avg_il_before"`
	AvgILAfter    float64 `json:"avg_il_after"`
	Expansions    int     `json:"expansions"`
	CodeIncPct    float64 `json:"code_inc_pct"`
	CallDecPct    float64 `json:"call_dec_pct"`
	// Seconds is wall-clock and therefore machine- and load-dependent;
	// compare trends, not digits.
	Seconds float64 `json:"seconds"`
	// Phases breaks Seconds down by pipeline phase, summed across
	// workers (concurrent phases can exceed Seconds). Wall-clock too.
	Phases map[string]float64 `json:"phases,omitempty"`
}

// JSONReport is the top-level -json document: the per-benchmark rows plus
// enough run context to interpret the wall-clock column. The optional
// profdb section carries the profile-database pipeline measurements
// (ilbench -profdb).
type JSONReport struct {
	Parallelism int             `json:"parallelism"`
	NumCPU      int             `json:"num_cpu"`
	Results     []JSONResult    `json:"results"`
	ProfDB      []*ProfDBResult `json:"profdb,omitempty"`
	// Agreement carries the predicted-vs-measured inlining-decision
	// comparisons (ilbench -agreement) — the numbers the CI predict-gate
	// checks against .github/agreement-threshold.txt.
	Agreement []*AgreementResult `json:"agreement,omitempty"`
}

// MarshalResults renders benchmark results, plus the optional profdb
// and agreement sections (nil to omit), as indented JSON. parallelism
// is the effective Config.Parallelism the results were produced with.
func MarshalResults(results []*BenchResult, parallelism int, pdb []*ProfDBResult, agr []*AgreementResult) ([]byte, error) {
	rep := JSONReport{
		Parallelism: parallelism,
		NumCPU:      runtime.NumCPU(),
		Results:     make([]JSONResult, 0, len(results)),
		ProfDB:      pdb,
		Agreement:   agr,
	}
	for _, r := range results {
		rep.Results = append(rep.Results, JSONResult{
			Name:          r.Name,
			Engine:        r.Engine,
			ProfileMode:   r.ProfileMode,
			SampleRate:    r.SampleRate,
			ProfileEvents: r.ProfileEvents,
			WeightErrPct:  r.WeightErrPct,
			CLines:        r.CLines,
			Runs:          r.Runs,
			AvgILBefore:   r.AvgIL,
			AvgILAfter:    r.AvgILAfter,
			Expansions:    r.Expansions,
			CodeIncPct:    100 * r.CodeInc,
			CallDecPct:    100 * r.CallDec,
			Seconds:       r.Seconds,
			Phases:        r.Phases,
		})
	}
	out, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// ReadReport loads a report previously written by `ilbench -json` (e.g.
// BENCH_baseline.json), for wall-time regression checks.
func ReadReport(path string) (*JSONReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep JSONReport
	if err := json.Unmarshal(data, &rep); err != nil {
		return nil, fmt.Errorf("parse %s: %w", path, err)
	}
	return &rep, nil
}

// CheckRegression compares per-run wall time against a baseline report
// and returns an error naming every benchmark that ran more than factor
// times slower than its baseline entry. Comparing per run (Seconds/Runs)
// keeps a -runs-capped smoke check comparable to a full baseline;
// benchmarks absent from the baseline are skipped. Wall clock is noisy
// and machine-dependent, so factor should be generous (the CI gate
// uses 2).
func CheckRegression(results []*BenchResult, baseline *JSONReport, factor float64) error {
	// Baseline rows match by (name, engine, profile mode) when the
	// baseline records them, falling back to (name, engine) for
	// pre-profile-mode reports (e.g. BENCH_pr6.json) and then to the bare
	// name for pre-engine reports (e.g. BENCH_pr3.json). Fallback rows
	// measured full-mode profiling, which no reduced mode may fall behind
	// either, so looser matches only ever tighten the gate.
	base := make(map[string]JSONResult, 2*len(baseline.Results))
	for _, r := range baseline.Results {
		switch {
		case r.Engine != "" && r.ProfileMode != "":
			base[r.Name+"\x00"+r.Engine+"\x00"+r.ProfileMode] = r
		case r.Engine != "":
			base[r.Name+"\x00"+r.Engine] = r
		default:
			base[r.Name] = r
		}
	}
	var slow []string
	for _, r := range results {
		mode := r.ProfileMode
		if mode == "" {
			mode = "full"
		}
		b, ok := base[r.Name+"\x00"+r.Engine+"\x00"+mode]
		if !ok {
			b, ok = base[r.Name+"\x00"+r.Engine]
		}
		if !ok {
			b, ok = base[r.Name]
		}
		if !ok || b.Runs <= 0 || r.Runs <= 0 || b.Seconds <= 0 {
			continue
		}
		got := r.Seconds / float64(r.Runs)
		want := b.Seconds / float64(b.Runs)
		if got > factor*want {
			name := r.Name
			if r.Engine != "" {
				name += " [" + r.Engine + "]"
			}
			slow = append(slow, fmt.Sprintf("%s: %.3fs/run vs baseline %.3fs/run (%.1fx > %.1fx)",
				name, got, want, got/want, factor))
		}
	}
	if len(slow) > 0 {
		return fmt.Errorf("wall-time regression vs baseline:\n  %s", strings.Join(slow, "\n  "))
	}
	return nil
}
