package bench

import (
	"encoding/json"
)

// JSONResult is the machine-readable per-benchmark record `ilbench -json`
// emits. Every field is deterministic, so two reports of the same tree
// compare byte for byte at any parallelism and on any machine.
type JSONResult struct {
	Name string `json:"name"`
	// ProfileMode/SampleRate record the profiling instrumentation the run
	// used.
	ProfileMode string `json:"profile_mode,omitempty"`
	SampleRate  int    `json:"sample_rate,omitempty"`
	// ProfileEvents counts profiling counter increments across both
	// profiling passes; WeightErrPct is the sampled arc-weight error in
	// percent (0 for the exact modes).
	ProfileEvents int64   `json:"profile_events,omitempty"`
	WeightErrPct  float64 `json:"weight_err_pct,omitempty"`
	CLines        int     `json:"c_lines"`
	Runs          int     `json:"runs"`
	AvgILBefore   float64 `json:"avg_il_before"`
	AvgILAfter    float64 `json:"avg_il_after"`
	Expansions    int     `json:"expansions"`
	CodeIncPct    float64 `json:"code_inc_pct"`
	CallDecPct    float64 `json:"call_dec_pct"`
}

// JSONReport is the top-level -json document.
type JSONReport struct {
	Results []JSONResult `json:"results"`
	// Agreement carries the predicted-vs-measured inlining-decision
	// comparisons (ilbench -agreement) — the numbers the CI predict-gate
	// checks against .github/agreement-threshold.txt.
	Agreement []*AgreementResult `json:"agreement,omitempty"`
}

// MarshalResults renders benchmark results, plus the optional agreement
// section (nil to omit), as indented JSON.
func MarshalResults(results []*BenchResult, agr []*AgreementResult) ([]byte, error) {
	rep := JSONReport{
		Results:   make([]JSONResult, 0, len(results)),
		Agreement: agr,
	}
	for _, r := range results {
		rep.Results = append(rep.Results, JSONResult{
			Name:          r.Name,
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
		})
	}
	out, err := json.MarshalIndent(&rep, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
