// Command benchmark is the repository's benchmark. From a seed it
// generates four workloads, builds every program through the compiler's
// layers, runs the inlined modules, checks every output against an
// oracle, and prints every end-to-end metric (or, with -trace 1, every
// per-layer metric) by name and unit. BENCHMARK.json at the repository
// root defines the workloads and metrics; README.md explains them.
//
// Run it from the repository root:
//
//	bash benchmark/run.sh -seed 1                      # every workload
//	bash benchmark/run.sh -workload pgo-measured -seed 1 -seconds 15 -trace 0
//	bash benchmark/run.sh -seed 1 -trace 1 -spans spans.json
//	bash benchmark/run.sh -compare old.json[,old2.json] new.json[,new2.json]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"text/tabwriter"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// fileResult is what -json writes and -compare reads.
type fileResult struct {
	Seed      int64             `json:"seed"`
	Seconds   float64           `json:"seconds"`
	Trace     bool              `json:"trace"`
	Host      string            `json:"host"`
	Workloads []*workloadResult `json:"workloads"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("workload", "", "run only this workload (default: every workload)")
	seed := fs.Int64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 0, "timed budget per workload in seconds (default: run_seconds of the definition)")
	trace := fs.Int("trace", 0, "1 measures the per-layer metrics through traced passes instead of the end-to-end ones")
	jsonOut := fs.String("json", "", "write the full result to this file")
	spansOut := fs.String("spans", "", "with -trace 1, write the spans to this file as Chrome trace-event JSON")
	compare := fs.Bool("compare", false, "compare result files: -compare OLD[,OLD...] NEW[,NEW...]")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := readSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes OLD[,OLD...] NEW[,NEW...]")
			return 2
		}
		return compareFiles(sp, fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || (*trace != 0 && *trace != 1) || (*spansOut != "" && *trace != 1) {
		fs.Usage()
		return 2
	}
	names := sp.workloadNames()
	if *only != "" {
		names = []string{*only}
	}
	cfg := config{seconds: *seconds, trace: *trace == 1}
	if cfg.seconds <= 0 {
		cfg.seconds = float64(sp.RunSeconds)
	}
	runtime.GOMAXPROCS(parallelism)

	res := &fileResult{Seed: *seed, Seconds: cfg.seconds, Trace: cfg.trace,
		Host: fmt.Sprintf("%s %s/%s, %d CPUs", runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.NumCPU())}
	for _, name := range names {
		fmt.Fprintf(stderr, "benchmark: %s, seed %d\n", name, *seed)
		r, err := measure(name, *seed, cfg)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		res.Workloads = append(res.Workloads, r)
		report(stdout, sp.metrics(cfg.trace), r)
	}
	if *jsonOut != "" {
		if err := writeJSON(*jsonOut, res); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	if *spansOut != "" {
		if err := writeSpans(*spansOut, res.Workloads); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	ok, line := summary(sp.metrics(cfg.trace), res.Workloads)
	fmt.Fprintln(stdout, line)
	if !ok {
		return 1
	}
	return 0
}

// summary renders the final output line: one JSON object with whether
// every output was correct, the operations attempted and failed, and
// every metric of the definition. With several workloads, metric names
// are prefixed with the workload's.
func summary(metrics []metricSpec, rs []*workloadResult) (bool, string) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: make(map[string]value)}
	for _, r := range rs {
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		out.Correct = out.Correct && r.correct()
		for _, m := range metrics {
			v, ok := r.Metrics[m.Name]
			if !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				out.Correct = false // a metric the run could not measure
				continue
			}
			name := m.Name
			if len(rs) > 1 {
				name = r.Workload + "/" + name
			}
			out.Metrics[name] = value{v.Value, m.Unit}
		}
	}
	b, _ := json.Marshal(out) // only finite floats, strings and bools
	return out.Correct, string(b)
}

// report prints one workload's result for people: every metric of the
// definition with its unit and samples, then the layer table if traced.
func report(w io.Writer, metrics []metricSpec, r *workloadResult) {
	fmt.Fprintf(w, "== %s  seed %d  workload_sha256 %s\n", r.Workload, r.Seed, r.SHA256)
	fmt.Fprintf(w, "   %d passes", r.Passes)
	if r.TracedPasses > 0 {
		fmt.Fprintf(w, " + %d traced", r.TracedPasses)
	}
	fmt.Fprintf(w, ", %d operations attempted, %d failed (fail_ratio %.4g)\n",
		r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)))
	for _, f := range r.Failures {
		fmt.Fprintf(w, "   FAIL %s\n", f)
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, m := range metrics {
		v, ok := r.Metrics[m.Name]
		if !ok {
			fmt.Fprintf(tw, "   %s\tn/a\t%s\t\n", m.Name, m.Unit)
			continue
		}
		detail := ""
		switch {
		case v.Q1 != 0 || v.Q3 != 0:
			detail = fmt.Sprintf("median of %d, IQR %.6g..%.6g", v.N, v.Q1, v.Q3)
		case v.N > 0:
			detail = fmt.Sprintf("n=%d", v.N)
		}
		fmt.Fprintf(tw, "   %s\t%.6g\t%s\t%s\n", m.Name, v.Value, m.Unit, detail)
	}
	tw.Flush()
	listed := make(map[string]bool, len(metrics))
	for _, m := range metrics {
		listed[m.Name] = true
	}
	var extra []string
	for n := range r.Metrics {
		if !listed[n] {
			extra = append(extra, n)
		}
	}
	sort.Strings(extra)
	for _, n := range extra {
		v := r.Metrics[n]
		fmt.Fprintf(w, "   (also) %s %.6g n=%d\n", n, v.Value, v.N)
	}
	if len(r.Layers) == 0 {
		return
	}
	names := make([]string, 0, len(r.Layers))
	for n := range r.Layers {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintln(w, "   layer spans (self time per pass, median over traced passes):")
	tw = tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "   span\tcalls/pass\tself_s\terrors\t")
	for _, n := range names {
		l := r.Layers[n]
		label := n
		if containers[n] {
			label += " (other)"
		}
		fmt.Fprintf(tw, "   %s\t%.4g\t%.6f\t%d\t\n", label, l.CallsPerPass, l.SelfS, l.Errors)
	}
	tw.Flush()
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// writeSpans writes every traced workload's spans, one process id per
// workload so trace viewers show them side by side.
func writeSpans(path string, rs []*workloadResult) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	var events []chromeEvent
	for i, r := range rs {
		if r.tracer != nil {
			events = append(events, r.tracer.chromeEvents(i+1, r.Workload)...)
		}
	}
	err = json.NewEncoder(f).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// loadResults reads result files named in a comma-separated list.
func loadResults(list string) ([]*workloadResult, error) {
	var out []*workloadResult
	for _, path := range strings.Split(list, ",") {
		b, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var fr fileResult
		if err := json.Unmarshal(b, &fr); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if fr.Trace {
			return nil, fmt.Errorf("%s: a traced result has no end-to-end metrics to compare", path)
		}
		out = append(out, fr.Workloads...)
	}
	return out, nil
}
