package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"inlinec"
	"inlinec/internal/obs"
)

const (
	// A run sets its workload up from scratch at least minSetupReps times
	// and until setupShare of its timed budget has passed; setup_s is the
	// median. Short setups thus get more samples.
	minSetupReps = 3
	setupShare   = 0.25
	// minPasses is the fewest passes behind any per-pass median.
	minPasses = 3
	// minCoverage is the share of a traced pass the layer spans must
	// cover; the rest is the benchmark's own bookkeeping.
	minCoverage = 0.95
)

// config is one invocation's measurement settings.
type config struct {
	seconds float64 // timed budget per workload
	trace   bool    // measure per-layer metrics instead of end-to-end ones
	subset  int     // keep only the first subset suite programs (0 = all)
}

// counts are the deterministic results of one job in one pass. Every
// pass, traced or not, must reproduce the warm-up pass's counts exactly.
type counts struct {
	origSize, inlinedSize, finalSize                  int
	considered, accepted, expansions, partial, devirt int
	events                                            int64 // profile events behind measured weights
	runs                                              int
	il, calls                                         int64 // over the evaluation runs
}

// sumCounts adds up every field of cs.
func sumCounts(cs []counts) counts {
	var s counts
	for _, c := range cs {
		s.origSize += c.origSize
		s.inlinedSize += c.inlinedSize
		s.finalSize += c.finalSize
		s.considered += c.considered
		s.accepted += c.accepted
		s.expansions += c.expansions
		s.partial += c.partial
		s.devirt += c.devirt
		s.events += c.events
		s.runs += c.runs
		s.il += c.il
		s.calls += c.calls
	}
	return s
}

func countsOf(b *built) counts {
	c := counts{
		origSize: b.res.OriginalSize, inlinedSize: b.res.FinalSize,
		finalSize: b.prog.Module.TotalCodeSize(), expansions: b.res.NumExpansions,
		events: b.weights.ProfileEvents,
	}
	for _, ev := range b.res.Trace {
		if ev.Outcome == obs.OutcomeNotExpandable {
			continue
		}
		c.considered++
		if ev.Outcome.IsAccepted() {
			c.accepted++
		}
		switch ev.Outcome {
		case obs.OutcomePartialInlined:
			c.partial++
		case obs.OutcomeDevirtualized:
			c.devirt++
		}
	}
	return c
}

// passResult is one pass over every job of a workload.
type passResult struct {
	seconds         float64
	buildMS, runMS  []float64
	alloc, peakHeap uint64 // bytes allocated during the pass; max HeapInuse after a job
	counts          []counts
	builts          []*built // dropped once a later pass supersedes them
	mallocs         uint64   // Go heap allocations of traced runs
	attempted       int
	failures        []string
}

func (pr *passResult) fail(format string, args ...any) {
	pr.failures = append(pr.failures, fmt.Sprintf(format, args...))
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// pass builds every job and, for workloads that run programs, runs and
// checks every evaluation input. A nil tracer runs the facade path.
func (w *workload) pass(t *tracer) *passResult {
	pr := &passResult{counts: make([]counts, len(w.jobs)), builts: make([]*built, len(w.jobs))}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc := ms.TotalAlloc
	start := time.Now()
	root := t.begin("pass", -1)
	for ji, j := range w.jobs {
		t0 := time.Now()
		id := t.begin("build", ji)
		var b *built
		var err error
		if t == nil {
			b, err = w.build(j)
		} else {
			b, err = w.buildTraced(t, ji, j)
		}
		t.end(id, err)
		pr.buildMS = append(pr.buildMS, msSince(t0))
		pr.attempted++
		if err != nil {
			pr.fail("%s: build: %v", j.name, err)
			continue
		}
		pr.builts[ji] = b
		pr.counts[ji] = countsOf(b)
		if w.runsInPass {
			w.evaluate(t, ji, b, pr)
		}
		runtime.ReadMemStats(&ms)
		pr.peakHeap = max(pr.peakHeap, ms.HeapInuse)
	}
	t.end(root, nil)
	pr.seconds = time.Since(start).Seconds()
	runtime.ReadMemStats(&ms)
	pr.alloc = ms.TotalAlloc - alloc
	return pr
}

// evaluate runs job ji's evaluation inputs on its built module and checks
// every outcome against the oracle.
func (w *workload) evaluate(t *tracer, ji int, b *built, pr *passResult) {
	j := w.jobs[ji]
	c := &pr.counts[ji]
	for k, in := range j.eval {
		t0 := time.Now()
		id := t.begin("run", ji)
		var o outcome
		if t == nil {
			o = runOutcome(b.prog.Run(in))
		} else {
			var n uint64
			o, n = runTraced(t, ji, b.prog, in)
			pr.mallocs += n
		}
		t.end(id, nil)
		pr.runMS = append(pr.runMS, msSince(t0))
		pr.attempted++
		if !o.same(&j.oracle[k]) {
			pr.fail("%s: evaluation input %d: behaviour differs from the original module (%s)", j.name, k, o.err)
		}
		c.runs++
		c.il += o.il
		c.calls += o.calls
	}
}

// verify runs one round of a build-only workload's evaluation inputs on
// the modules of a pass.
func (w *workload) verify(t *tracer, builts []*built) *passResult {
	vr := &passResult{counts: make([]counts, len(w.jobs))}
	root := t.begin("verify", -1)
	for ji, b := range builts {
		if b != nil {
			w.evaluate(t, ji, b, vr)
		}
	}
	t.end(root, nil)
	return vr
}

// metric is one reported value with the samples behind it.
type metric struct {
	Value float64 `json:"value"`
	N     int     `json:"n,omitempty"` // samples behind a median or percentile
	// Q1 and Q3 are the sample quartiles behind a median.
	Q1 float64 `json:"q1,omitempty"`
	Q3 float64 `json:"q3,omitempty"`
}

// layerRow is one layer of a traced workload.
type layerRow struct {
	CallsPerPass float64 `json:"calls_per_pass"`
	SelfS        float64 `json:"self_s"`
	Errors       int     `json:"errors"`
}

// workloadResult is everything one workload's measurement produced.
type workloadResult struct {
	Workload     string              `json:"workload"`
	Seed         int64               `json:"seed"`
	SHA256       string              `json:"workload_sha256"`
	Passes       int                 `json:"passes"`
	TracedPasses int                 `json:"traced_passes,omitempty"`
	Attempted    int                 `json:"attempted"`
	Failed       int                 `json:"failed"`
	Failures     []string            `json:"failures,omitempty"`
	Metrics      map[string]metric   `json:"metrics"`
	Layers       map[string]layerRow `json:"layers,omitempty"`
	tracer       *tracer
}

// maxFailuresKept bounds how many failure messages a result keeps.
const maxFailuresKept = 20

func (r *workloadResult) absorb(pr *passResult) {
	r.Attempted += pr.attempted
	r.Failed += len(pr.failures)
	r.check(pr.failures...)
}

// check records failure messages, keeping the first maxFailuresKept.
func (r *workloadResult) check(msgs ...string) {
	for _, m := range msgs {
		if len(r.Failures) < maxFailuresKept {
			r.Failures = append(r.Failures, m)
		}
	}
}

func (r *workloadResult) correct() bool { return r.Failed == 0 && len(r.Failures) == 0 }

// timedLoop repeats step until the budget is spent, at least minPasses
// times. Each step's counts must equal ref; a nil ref takes the first
// step's.
func (w *workload) timedLoop(r *workloadResult, budget float64, ref []counts, step func() *passResult) []*passResult {
	var prs []*passResult
	start := time.Now()
	for {
		runtime.GC() // every step starts from a collected heap
		pr := step()
		r.absorb(pr)
		if ref == nil {
			ref = pr.counts
		}
		for ji := range w.jobs {
			if pr.counts[ji] != ref[ji] {
				r.Failed++
				r.check(fmt.Sprintf("%s: pass %d: deterministic counts %+v differ from the reference %+v",
					w.jobs[ji].name, len(prs)+1, pr.counts[ji], ref[ji]))
			}
		}
		if n := len(prs); n > 0 {
			prs[n-1].builts = nil
		}
		prs = append(prs, pr)
		if time.Since(start).Seconds() >= budget && len(prs) >= minPasses {
			return prs
		}
	}
}

// verifyShare is the part of a build-only workload's budget spent
// running its evaluation inputs, which gives run_ms its samples.
const verifyShare = 0.5

// measure sets a workload up, warms it, times it, and derives its metrics.
func measure(name string, seed int64, cfg config) (*workloadResult, error) {
	var (
		w      *workload
		warm   *passResult
		setupS []float64
	)
	for start := time.Now(); len(setupS) < minSetupReps || time.Since(start).Seconds() < setupShare*cfg.seconds; {
		t0 := time.Now()
		var err error
		if w, err = generate(name, seed, cfg.subset); err != nil {
			return nil, err
		}
		if err = setup(w); err != nil {
			return nil, err
		}
		warm = w.pass(nil)
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	r := &workloadResult{Workload: name, Seed: seed, SHA256: w.fingerprint(), Metrics: make(map[string]metric)}
	r.absorb(warm)
	ref := warm.counts
	if sum := sumCounts(ref); name == "guarded-minimal" && (sum.partial == 0 || sum.devirt == 0) {
		// The workload exists to exercise both guarded expanders.
		r.check(fmt.Sprintf("guarded expansion did not fire: %d partial, %d devirt", sum.partial, sum.devirt))
	}

	budget, verifyBudget := cfg.seconds, 0.0
	switch {
	case cfg.trace:
		budget /= 2 // the other half runs traced
	case !w.runsInPass:
		verifyBudget = budget * verifyShare
		budget -= verifyBudget
	}
	untraced := w.timedLoop(r, budget, ref, func() *passResult { return w.pass(nil) })
	r.Passes = len(untraced)
	last := untraced[len(untraced)-1]
	if !cfg.trace {
		runs, runCounts := untraced, ref
		if !w.runsInPass {
			runs = w.timedLoop(r, verifyBudget, nil, func() *passResult { return w.verify(nil, last.builts) })
			runCounts = runs[0].counts
		}
		w.endToEnd(r, setupS, untraced, runs, ref, runCounts)
		return r, nil
	}

	// Traced passes: the layer functions one at a time, each under a span.
	want := make([]string, len(w.jobs))
	for ji, b := range last.builts {
		if b != nil {
			want[ji] = b.prog.Module.String()
		}
	}
	r.tracer = newTracer()
	traced := w.timedLoop(r, budget, ref, func() *passResult { return w.pass(r.tracer) })
	r.TracedPasses = len(traced)
	tlast := traced[len(traced)-1]
	for ji, b := range tlast.builts {
		if b != nil && b.prog.Module.String() != want[ji] {
			r.check(fmt.Sprintf("%s: traced build produced a different module than the facade", w.jobs[ji].name))
		}
	}
	var vr *passResult
	if !w.runsInPass {
		vr = w.verify(r.tracer, tlast.builts)
		r.absorb(vr)
	}
	return r, w.perLayer(r, untraced, traced, vr, ref)
}

// endToEnd derives the end-to-end metrics of an untraced measurement:
// timings from the passes (and, for a build-only workload, from its
// verification rounds), sizes from the reference counts, and dynamic
// counts from the runs' counts.
func (w *workload) endToEnd(r *workloadResult, setupS []float64, prs, runPasses []*passResult, sizes, runs []counts) {
	med := func(xs []float64) metric {
		q1, q3 := quartiles(xs)
		return metric{Value: median(xs), N: len(xs), Q1: q1, Q3: q3}
	}
	var passS, allocMB, peakMB []float64
	var buildMS, runMS [][]float64
	for _, pr := range prs {
		passS = append(passS, pr.seconds)
		allocMB = append(allocMB, float64(pr.alloc)/1e6)
		peakMB = append(peakMB, float64(pr.peakHeap)/1e6)
		buildMS = append(buildMS, pr.buildMS)
	}
	for _, pr := range runPasses {
		runMS = append(runMS, pr.runMS)
	}
	r.Metrics["setup_s"] = med(setupS)
	r.Metrics["pipeline_s"] = med(passS)
	r.Metrics["alloc_mb_per_pass"] = med(allocMB)
	r.Metrics["peak_heap_mb"] = med(peakMB)
	evals := 0
	var origIL, origCalls int64
	for _, j := range w.jobs {
		evals += len(j.eval)
		for _, o := range j.oracle {
			origIL += o.il
			origCalls += o.calls
		}
	}
	timing("build_ms", buildMS, len(w.jobs), r.Metrics)
	timing("run_ms", runMS, evals, r.Metrics)
	size, run := sumCounts(sizes), sumCounts(runs)
	r.Metrics["dyn_il_pct"] = metric{Value: 100 * float64(run.il) / float64(origIL), N: run.runs}
	r.Metrics["call_dec_pct"] = metric{Value: 100 * float64(origCalls-run.calls) / float64(origCalls), N: run.runs}
	r.Metrics["code_size_pct"] = metric{Value: 100 * float64(size.finalSize) / float64(size.origSize), N: len(w.jobs)}
}

// timing adds name.geomean, the geometric mean over programs (or
// evaluation inputs) of each one's median time across passes, and the
// pooled name.p50 and name.p90 where they have their samples. Programs
// differ in cost by two orders of magnitude, so a pooled percentile sits
// on whichever program straddles it and jumps when two trade places; the
// geometric mean is the gated figure. Each row holds one pass's samples,
// width of them unless the pass lost some to a failed build.
func timing(name string, rows [][]float64, width int, m map[string]metric) {
	var full [][]float64
	var pooled []float64
	for _, row := range rows {
		pooled = append(pooled, row...)
		if len(row) == width {
			full = append(full, row)
		}
	}
	if len(full) > 0 {
		logSum := 0.0
		for i := 0; i < width; i++ {
			xs := make([]float64, len(full))
			for p, row := range full {
				xs[p] = row[i]
			}
			logSum += math.Log(median(xs))
		}
		m[name+".geomean"] = metric{Value: math.Exp(logSum / float64(width)), N: width}
	}
	for _, p := range []int{50, 90} {
		if v, ok := percentile(pooled, p); ok {
			m[fmt.Sprintf("%s.p%d", name, p)] = metric{Value: v, N: len(pooled)}
		}
	}
}

// selfName is a layer's self-time metric name: "parser.self_s", but
// "opt.pre_self_s" for a layer whose name already has a dot.
func selfName(layer string) string {
	if strings.Contains(layer, ".") {
		return layer + "_self_s"
	}
	return layer + ".self_s"
}

// containers are the spans the benchmark opens around layer calls; their
// self time is the benchmark's own bookkeeping, reported as other.self_s.
var containers = map[string]bool{"pass": true, "build": true, "run": true, "verify": true}

// perLayer derives the per-layer metrics of a traced measurement: self
// times per pass (median over the traced passes; a build-only workload's
// interpreter layers come from its verification round), the layers'
// deterministic counts, and the tracing overhead.
func (w *workload) perLayer(r *workloadResult, untraced, traced []*passResult, vr *passResult, ref []counts) error {
	passes := r.tracer.rootLayers("pass")
	r.Layers = make(map[string]layerRow)
	selfs := make(map[string][]float64)
	var other, weights, coverage []float64
	for i, layers := range passes {
		var o, wt float64
		for name, ls := range layers {
			row := r.Layers[name]
			row.CallsPerPass += float64(ls.calls) / float64(len(passes))
			row.Errors += ls.errors
			r.Layers[name] = row
			selfs[name] = append(selfs[name], ls.self.Seconds())
			if containers[name] {
				o += ls.self.Seconds()
			}
		}
		for _, name := range weightLayers {
			if ls := layers[name]; ls != nil {
				wt += ls.self.Seconds()
			}
		}
		other = append(other, o)
		weights = append(weights, wt)
		coverage = append(coverage, 1-o/traced[i].seconds)
	}
	for name, xs := range selfs {
		row := r.Layers[name]
		row.SelfS = median(xs)
		r.Layers[name] = row
		if !containers[name] {
			r.Metrics[selfName(name)] = metric{Value: row.SelfS, N: len(xs)}
		}
	}
	r.Metrics["weights.self_s"] = metric{Value: median(weights), N: len(weights)}
	r.Metrics["other.self_s"] = metric{Value: median(other), N: len(other)}
	if c := median(coverage); c < minCoverage {
		r.check(fmt.Sprintf("layer spans cover %.1f%% of a traced pass, below %.0f%%", 100*c, 100*minCoverage))
	}

	// Interpreter throughput and allocations, from whichever runs were traced.
	run := sumCounts(ref)
	mallocs := traced[len(traced)-1].mallocs
	if vr != nil {
		v := r.tracer.rootLayers("verify")[0]
		for _, name := range []string{"interp.translate", "interp.exec"} {
			if ls := v[name]; ls != nil {
				r.Metrics[selfName(name)] = metric{Value: ls.self.Seconds(), N: 1}
				r.Layers[name] = layerRow{CallsPerPass: float64(ls.calls), SelfS: ls.self.Seconds(), Errors: ls.errors}
			}
		}
		run, mallocs = sumCounts(vr.counts), vr.mallocs
	}
	r.Metrics["interp.dyn_il_per_s"] = metric{Value: float64(run.il) / r.Metrics["interp.exec_self_s"].Value}
	r.Metrics["interp.allocs_per_run"] = metric{Value: float64(mallocs) / float64(run.runs), N: run.runs}

	// Deterministic per-pass counts.
	var staticIL, arcs, lookups, hits, sites, exact int
	for _, b := range traced[len(traced)-1].builts {
		if b == nil {
			continue
		}
		staticIL += b.staticIL
		arcs += b.arcs
		lookups += b.res.Cache.Lookups
		hits += b.res.Cache.Hits
		if b.report != nil {
			sites += b.report.Resolve.Sites
			exact += b.report.Resolve.ExactSites
		}
	}
	sum := sumCounts(ref)
	r.Metrics["irgen.il_static"] = metric{Value: float64(staticIL)}
	r.Metrics["callgraph.arcs"] = metric{Value: float64(arcs)}
	r.Metrics["profile.events"] = metric{Value: float64(sum.events)}
	r.Metrics["inline.expansions"] = metric{Value: float64(sum.expansions)}
	r.Metrics["inline.partial"] = metric{Value: float64(sum.partial)}
	r.Metrics["inline.devirt"] = metric{Value: float64(sum.devirt)}
	r.Metrics["inline.accept_pct"] = metric{Value: pct(sum.accepted, sum.considered)}
	r.Metrics["inline.cache_hit_pct"] = metric{Value: pct(hits, lookups)}
	r.Metrics["opt.post_il_removed_pct"] = metric{Value: pct(sum.inlinedSize-sum.finalSize, sum.inlinedSize)}
	r.Metrics["profdb.exact_pct"] = metric{Value: pct(exact, sites)}

	var us, ts []float64
	for _, pr := range untraced {
		us = append(us, pr.seconds)
	}
	for _, pr := range traced {
		ts = append(ts, pr.seconds)
	}
	r.Metrics["trace_overhead_pct"] = metric{Value: 100 * (median(ts)/median(us) - 1), N: len(ts)}

	agree, errPct, err := w.predictorChecks(traced[len(traced)-1].builts)
	if err != nil {
		return err
	}
	r.Metrics["predict.agreement_pct"] = metric{Value: agree}
	r.Metrics["profile.weight_err_pct"] = metric{Value: errPct}
	return nil
}

// pct is 100·num/den, and 0 when there is nothing to divide.
func pct(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return 100 * float64(num) / float64(den)
}

// predictorChecks scores weights against a fully measured profile of each
// job's training inputs. agreement is the share of suite-program arcs on
// which predicted weights make the measured weights' decision;
// weightErr is how far the calls per run the builds' weights add up to
// sit from the measured calls per run.
func (w *workload) predictorChecks(builts []*built) (agreement, weightErr float64, err error) {
	var agree, arcs int
	var errSum, callSum float64
	compile := func(j *job) (*inlinec.Program, error) {
		p, err := inlinec.Compile(j.name+".c", j.src)
		if err != nil {
			return nil, err
		}
		p.Parallelism = parallelism
		return p, nil
	}
	for ji, j := range w.jobs {
		b := builts[ji]
		if b == nil {
			continue
		}
		mp, err := compile(j)
		if err != nil {
			return 0, 0, err
		}
		ref, err := mp.ProfileInputs(j.train...)
		if err != nil {
			return 0, 0, err
		}
		if ref.TotalCalls > 0 && b.weights.Runs > 0 {
			perRun := float64(ref.TotalCalls) / float64(ref.Runs)
			var sites int64
			for _, n := range b.weights.SiteCounts {
				sites += n
			}
			errSum += math.Abs(float64(sites)/float64(b.weights.Runs) - perRun)
			callSum += perRun
		}
		if !j.suite {
			continue
		}
		mres, err := mp.Inline(ref, j.params)
		if err != nil {
			return 0, 0, err
		}
		pp, err := compile(j)
		if err != nil {
			return 0, 0, err
		}
		pres, err := pp.Inline(pp.PredictProfile(), j.params)
		if err != nil {
			return 0, 0, err
		}
		s := obs.CompareInlineTraces(mres.Trace, pres.Trace)
		agree += s.Agree
		arcs += s.Arcs
	}
	if callSum > 0 {
		weightErr = 100 * errSum / callSum
	}
	return pct(agree, arcs), weightErr, nil
}
