package obs

import (
	"fmt"
	"sort"
	"strings"
)

// Predicted-vs-measured inlining agreement: the quantified score behind
// `ilbench -agreement` and the CI predict-gate. Two inline-decision
// traces over the same module are compared arc by arc; the score is the
// fraction of arcs where the predicted-weight compile made the same
// decision — accept, reject, partial-inline, or devirtualize (to the
// same target) — as the measured-weight compile.

// DecisionClass buckets an outcome into the four decisions the agreement
// metric distinguishes. Rejected and not-expandable collapse into one
// "reject" class: both leave the call site untouched, and whether an arc
// was excluded before or at the cost function can legitimately differ
// between weight sources without changing the compiled program.
func (o Outcome) DecisionClass() string {
	switch o {
	case OutcomeExpanded:
		return "accept"
	case OutcomePartialInlined:
		return "partial"
	case OutcomeDevirtualized:
		return "devirt"
	default:
		return "reject"
	}
}

// ArcDisagreement records one arc where the two traces decided
// differently.
type ArcDisagreement struct {
	Site   int    `json:"site"`
	Caller string `json:"caller"`
	Callee string `json:"callee"`
	// Measured/Predicted are the two outcomes ("absent" when the arc
	// appears in only one trace).
	Measured  string `json:"measured"`
	Predicted string `json:"predicted"`
	// MeasuredTarget/PredictedTarget carry the devirtualization targets
	// when either side devirtualized.
	MeasuredTarget  string `json:"measured_target,omitempty"`
	PredictedTarget string `json:"predicted_target,omitempty"`
}

// AgreementStats is the arc-level diff of two inline-decision traces.
type AgreementStats struct {
	// Arcs is the union arc count; Agree how many decided identically.
	Arcs  int `json:"arcs"`
	Agree int `json:"agree"`
	// ByDecision counts agreeing arcs per decision class.
	ByDecision map[string]int `json:"by_decision,omitempty"`
	// Disagreements lists every differing arc, sorted by site id.
	Disagreements []ArcDisagreement `json:"disagreements,omitempty"`
}

// Score returns the agreement fraction in [0, 1] (1 for two empty
// traces: no arcs, no disagreement).
func (s *AgreementStats) Score() float64 {
	if s.Arcs == 0 {
		return 1
	}
	return float64(s.Agree) / float64(s.Arcs)
}

// ScorePct is Score in percent.
func (s *AgreementStats) ScorePct() float64 { return 100 * s.Score() }

// CompareInlineTraces diffs two decision traces over the same module,
// arc by arc (matched by call-site id — both compiles see the same
// pre-inline module, so ids align). Arcs present in only one trace count
// as disagreements; devirtualized arcs additionally must agree on the
// guarded target.
func CompareInlineTraces(measured, predicted []ArcEvent) *AgreementStats {
	mBy := make(map[int]*ArcEvent, len(measured))
	for i := range measured {
		mBy[measured[i].Site] = &measured[i]
	}
	pBy := make(map[int]*ArcEvent, len(predicted))
	for i := range predicted {
		pBy[predicted[i].Site] = &predicted[i]
	}
	sites := make([]int, 0, len(mBy))
	for id := range mBy {
		sites = append(sites, id)
	}
	for id := range pBy {
		if _, ok := mBy[id]; !ok {
			sites = append(sites, id)
		}
	}
	sort.Ints(sites)

	s := &AgreementStats{ByDecision: make(map[string]int)}
	for _, id := range sites {
		s.Arcs++
		m, p := mBy[id], pBy[id]
		if m != nil && p != nil &&
			m.Outcome.DecisionClass() == p.Outcome.DecisionClass() &&
			m.Target == p.Target {
			s.Agree++
			s.ByDecision[m.Outcome.DecisionClass()]++
			continue
		}
		d := ArcDisagreement{Site: id, Measured: "absent", Predicted: "absent"}
		if m != nil {
			d.Caller, d.Callee = m.Caller, m.Callee
			d.Measured = string(m.Outcome)
			d.MeasuredTarget = m.Target
		}
		if p != nil {
			d.Caller, d.Callee = p.Caller, p.Callee
			d.Predicted = string(p.Outcome)
			d.PredictedTarget = p.Target
		}
		s.Disagreements = append(s.Disagreements, d)
	}
	return s
}

// FormatAgreementReport renders the agreement diff for humans:
// the score, the per-decision agreement mix, and every disagreeing arc.
// Deterministic — byte-identical for identical traces.
func FormatAgreementReport(name string, s *AgreementStats) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: predicted-vs-measured inlining agreement %.1f%% (%d/%d arcs)\n",
		name, s.ScorePct(), s.Agree, s.Arcs)
	classes := make([]string, 0, len(s.ByDecision))
	for c := range s.ByDecision {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		fmt.Fprintf(&sb, "  agreed %-8s %d\n", c, s.ByDecision[c])
	}
	if len(s.Disagreements) > 0 {
		fmt.Fprintf(&sb, "  disagreements (%d):\n", len(s.Disagreements))
		for _, d := range s.Disagreements {
			fmt.Fprintf(&sb, "    site %-4d %-20s <- %-20s measured=%s", d.Site, d.Caller, d.Callee, d.Measured)
			if d.MeasuredTarget != "" {
				fmt.Fprintf(&sb, "(%s)", d.MeasuredTarget)
			}
			fmt.Fprintf(&sb, " predicted=%s", d.Predicted)
			if d.PredictedTarget != "" {
				fmt.Fprintf(&sb, "(%s)", d.PredictedTarget)
			}
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}
