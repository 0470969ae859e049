package main

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"
)

// judge compares one metric's values from two sets of runs. change is the
// old median's share by which the new median is worse (negative when
// better). A timed metric whose run-to-run spread on either side exceeds
// its bound is unresolved unless every new run beats every old one; an
// exact metric must not change at all.
func judge(m metricSpec, old, cur []float64) (verdict string, change float64) {
	mo, mn := median(old), median(cur)
	worse := func(a, b float64) bool { // a is worse than b
		if m.Better == "higher" {
			return a < b
		}
		return a > b
	}
	change = math.Abs(mn-mo) / math.Abs(mo)
	if !worse(mn, mo) {
		change = -change
	}
	if mn == mo {
		return "same", 0
	}
	if exactMetrics[m.Name] {
		if change > 0 {
			return "worse", change
		}
		return "better", change
	}
	if max(spread(old), spread(cur)) > m.Bound {
		for _, n := range cur {
			for _, o := range old {
				if !worse(o, n) {
					return "unresolved", change
				}
			}
		}
		return "better", change
	}
	switch {
	case change > m.Bound:
		return "worse", change
	case change < -m.Bound:
		return "better", change
	}
	return "same", change
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}

// compareFiles prints one row per workload × end-to-end metric and
// returns non-zero when any row is worse or unresolved, or when the two
// sides measured different inputs.
func compareFiles(sp *spec, oldList, newList string, stdout, stderr io.Writer) int {
	olds, err := loadResults(oldList)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	news, err := loadResults(newList)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	status := 0
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\told median [q1 q3]\tnew median [q1 q3]\tchange (of old median)\tbound\tverdict\t")
	for _, name := range sp.workloadNames() {
		o, n := pick(olds, name), pick(news, name)
		if len(o) == 0 || len(n) == 0 {
			continue
		}
		if sha := o[0].SHA256; !allSHA(o, sha) || !allSHA(n, sha) {
			fmt.Fprintf(tw, "%s\tworkload_sha256\t\t%.12s\t%.12s\t\t\tinputs differ\t\n", name, sha, n[0].SHA256)
			status = 1
			continue
		}
		for _, m := range sp.EndToEnd {
			ov, nv := values(o, m.Name), values(n, m.Name)
			if len(ov) == 0 || len(nv) == 0 {
				fmt.Fprintf(tw, "%s\t%s\t%s\t\t\t\t\tmissing\t\n", name, m.Name, m.Unit)
				status = 1
				continue
			}
			verdict, change := judge(m, ov, nv)
			if verdict == "worse" || verdict == "unresolved" {
				status = 1
			}
			bound := fmt.Sprintf("%.0f%%", 100*m.Bound)
			if exactMetrics[m.Name] {
				bound = "exact"
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%+.2f%% of %.6g\t%s\t%s\t\n", name, m.Name, m.Unit,
				describe(ov), describe(nv), 100*change, median(ov), bound, verdict)
		}
	}
	tw.Flush()
	return status
}

func describe(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.6g [%.6g %.6g]", median(xs), q1, q3)
}

func pick(rs []*workloadResult, name string) []*workloadResult {
	var out []*workloadResult
	for _, r := range rs {
		if r.Workload == name {
			out = append(out, r)
		}
	}
	return out
}

func allSHA(rs []*workloadResult, sha string) bool {
	for _, r := range rs {
		if r.SHA256 != sha {
			return false
		}
	}
	return true
}

func values(rs []*workloadResult, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if v, ok := r.Metrics[name]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}
