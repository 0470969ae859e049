package bench

import (
	"fmt"

	"inlinec"
	"inlinec/internal/obs"
)

// Predicted-vs-measured agreement measurement: the benchmark is compiled
// twice from scratch; one copy inlines with its measured profile, the
// other with the synthesized prediction (zero profiling runs feed its
// weights), and the two decision traces diff arc by arc. The score is
// the predict-gate's CI currency (scripts/check_agreement.sh compares it
// against .github/agreement-threshold.txt).

// AgreementResult is one benchmark's arc-level agreement between
// predicted and measured inlining decisions, as reported by
// `ilbench -agreement -json`.
type AgreementResult struct {
	Name string `json:"name"`
	// ScorePct is the headline number: the percentage of arcs where
	// predicted mode made the same accept/reject/partial/devirt decision
	// as measured mode.
	ScorePct float64 `json:"score_pct"`
	*obs.AgreementStats
}

// String renders the full agreement report.
func (r *AgreementResult) String() string {
	return obs.FormatAgreementReport(r.Name, r.AgreementStats)
}

// RunAgreement compiles the benchmark twice, inlines one copy with
// measured weights and the other with predicted weights (same expansion
// parameters), and diffs the decision traces.
func RunAgreement(b *Benchmark, cfg Config) (*AgreementResult, error) {
	inputs := b.Inputs
	if cfg.MaxRuns > 0 && len(inputs) > cfg.MaxRuns {
		inputs = inputs[:cfg.MaxRuns]
	}

	o := inlinec.Options{Parallelism: cfg.Parallelism}
	mp, err := b.compileWith(o)
	if err != nil {
		return nil, err
	}
	measured, err := mp.ProfileInputs(inputs...)
	if err != nil {
		return nil, fmt.Errorf("%s: profiling: %w", b.Name, err)
	}
	mres, err := mp.Inline(measured, cfg.Inline)
	if err != nil {
		return nil, fmt.Errorf("%s: measured-mode inline: %w", b.Name, err)
	}

	// A fresh compile for the predicted leg: Inline rewrites the module
	// in place, and the diff is only meaningful over identical pre-inline
	// modules (compilation is deterministic, so the site ids align).
	pp, err := b.compileWith(o)
	if err != nil {
		return nil, err
	}
	pres, err := pp.Inline(pp.PredictProfile(), cfg.Inline)
	if err != nil {
		return nil, fmt.Errorf("%s: predicted-mode inline: %w", b.Name, err)
	}

	stats := obs.CompareInlineTraces(mres.Trace, pres.Trace)
	return &AgreementResult{Name: b.Name, ScorePct: stats.ScorePct(), AgreementStats: stats}, nil
}
