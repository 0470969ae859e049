package bench

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"inlinec"
	"inlinec/internal/callgraph"
	"inlinec/internal/inline"
	"inlinec/internal/interp"
	"inlinec/internal/pool"
)

// Config selects the experiment parameters. Zero values take the paper's
// defaults.
type Config struct {
	Inline   inlinec.Params
	Classify inlinec.ClassifyParams
	// MaxRuns caps the profiling runs per benchmark (0 = all). Useful for
	// quick tests; the full tables use every input.
	MaxRuns int
	// PostOptimize additionally runs the post-inline cleanup passes before
	// the final measurement (the paper did not; this is the ablation its
	// section 4.4 sketches).
	PostOptimize bool
	// Parallelism bounds the worker pools: RunAll runs up to this many
	// benchmarks concurrently, and each benchmark's profiling runs fan out
	// over the same number of workers (0 = all cores, 1 = serial). Results
	// are merged in suite and input order, so every setting produces the
	// same tables.
	Parallelism int
	// ProfileMode is a -profile-mode value, split by
	// inlinec.ParseProfileMode. The instrumentation modes ("full", the
	// default when empty, "minimal", or "sampled") select how the
	// measured weights are collected: full and minimal produce identical
	// tables, sampled tables are approximate, and the
	// ProfileEvents/WeightErrPct columns record the overhead and accuracy
	// trade-off. "predicted" feeds the inline expander synthesized
	// weights (zero profiling runs behind its decisions) while the
	// before/after measurements still run fully instrumented; its
	// WeightErrPct column reports the predicted-vs-measured total
	// call-count error. "hybrid" is rejected: the suite has no profile
	// database to draw on.
	ProfileMode string
	// SampleRate is the 1-in-k rate for the sampled mode (0 = the
	// interpreter's default rate).
	SampleRate int
}

// DefaultConfig mirrors the paper's setup.
func DefaultConfig() Config {
	return Config{
		Inline:   inlinec.DefaultParams(),
		Classify: inlinec.DefaultClassifyParams(),
	}
}

// BenchResult holds everything the four tables need for one benchmark.
type BenchResult struct {
	Name      string
	InputDesc string
	// ProfileMode is the profiling instrumentation mode the measurements
	// used ("full", "minimal", or "sampled"), or "predicted" when the
	// expander's weights were synthesized, with SampleRate the effective
	// 1-in-k rate when sampled (0 otherwise).
	ProfileMode string
	SampleRate  int
	// ProfileEvents totals the profiling counter increments across both
	// profiling passes (before and after inlining) — the instrumentation
	// overhead the reduced modes exist to shrink.
	ProfileEvents int64
	// WeightErrPct is the pre-inline profile's total arc-weight error in
	// percent: |Σ site counts − exact total calls| / exact total calls.
	// Exactly 0 in full and minimal modes; bounded by the sampling rate
	// in sampled mode.
	WeightErrPct float64

	// Table 1: benchmark characteristics.
	CLines     int
	Runs       int
	AvgIL      float64 // dynamic IL count per typical run (pre-inline)
	AvgControl float64 // dynamic control transfers per run (pre-inline)
	AvgILAfter float64 // dynamic IL count per run after inline expansion

	// Table 2/3: static and dynamic call-site characteristics.
	Classes callgraph.ClassCounts

	// Table 4: inline expansion results.
	CodeInc    float64    // fractional static code increase
	CallDec    float64    // fraction of dynamic calls eliminated
	ILPerCall  float64    // dynamic ILs between calls, after inlining
	CTPerCall  float64    // dynamic control transfers between calls, after
	PostMix    [4]float64 // post-inline dynamic call mix by class (fractions)
	Expansions int
	Result     *inline.Result
}

// RunOne executes the full methodology for one benchmark: profile the
// original, classify its call sites, inline with profile guidance,
// re-profile, and collect the table rows.
func RunOne(b *Benchmark, cfg Config) (*BenchResult, error) {
	inputs := b.Inputs
	if cfg.MaxRuns > 0 && len(inputs) > cfg.MaxRuns {
		inputs = inputs[:cfg.MaxRuns]
	}
	mode, weights, err := inlinec.ParseProfileMode(cfg.ProfileMode)
	if err == nil && weights == inlinec.WeightsHybrid {
		err = errors.New("hybrid weights need a profile database")
	}
	if err != nil {
		return nil, fmt.Errorf("benchmark %s: %w", b.Name, err)
	}
	p, err := b.compileWith(inlinec.Options{
		Parallelism: cfg.Parallelism,
		ProfileMode: mode,
		SampleRate:  cfg.SampleRate,
	})
	if err != nil {
		return nil, err
	}
	before, err := p.ProfileInputs(inputs...)
	if err != nil {
		return nil, fmt.Errorf("%s: profiling original: %w", b.Name, err)
	}

	rate := 0
	if mode == interp.ProfileSampled {
		rate = cfg.SampleRate
		if rate == 0 {
			rate = interp.DefaultSampleRate
		}
	}
	r := &BenchResult{
		Name:        b.Name,
		InputDesc:   b.InputDesc,
		ProfileMode: mode,
		SampleRate:  rate,
		CLines:      b.CLines(),
		Runs:        len(inputs),
		AvgIL:       before.AvgIL(),
		AvgControl:  before.AvgControl(),
	}
	guide := before
	if weights == inlinec.WeightsPredicted {
		r.ProfileMode = weights
		guide = p.PredictProfile()
		// Accuracy column: how far the synthesized calls-per-run total is
		// from the measured one.
		if before.TotalCalls > 0 && before.Runs > 0 && guide.Runs > 0 {
			measuredPerRun := float64(before.TotalCalls) / float64(before.Runs)
			predictedPerRun := float64(guide.TotalCalls) / float64(guide.Runs)
			r.WeightErrPct = 100 * math.Abs(predictedPerRun-measuredPerRun) / measuredPerRun
		}
	} else {
		// Arc-weight accuracy: the Calls total stays exact in every mode,
		// so comparing it against the (possibly rescaled) per-site sum
		// measures the sampling error directly.
		var siteSum int64
		for _, n := range before.SiteCounts {
			siteSum += n
		}
		if before.TotalCalls > 0 {
			diff := siteSum - before.TotalCalls
			if diff < 0 {
				diff = -diff
			}
			r.WeightErrPct = 100 * float64(diff) / float64(before.TotalCalls)
		}
	}

	// Tables 2 and 3: classification of the original module's call sites.
	g := p.CallGraph(guide)
	r.Classes = callgraph.Count(g.Classify(cfg.Classify))

	// Table 4: expand, optionally clean up, and re-measure.
	res, err := p.Inline(guide, cfg.Inline)
	if err != nil {
		return nil, fmt.Errorf("%s: inline expansion: %w", b.Name, err)
	}
	if cfg.PostOptimize {
		if err := p.Optimize(); err != nil {
			return nil, fmt.Errorf("%s: post-inline optimize: %w", b.Name, err)
		}
	}
	r.Result = res
	r.Expansions = res.NumExpansions
	r.CodeInc = float64(p.Module.TotalCodeSize()-res.OriginalSize) / float64(res.OriginalSize)

	after, err := p.ProfileInputs(inputs...)
	if err != nil {
		return nil, fmt.Errorf("%s: profiling inlined: %w", b.Name, err)
	}
	r.ProfileEvents = before.ProfileEvents + after.ProfileEvents
	r.AvgILAfter = after.AvgIL()
	if before.AvgCalls() > 0 {
		r.CallDec = (before.AvgCalls() - after.AvgCalls()) / before.AvgCalls()
	}
	if after.AvgCalls() > 0 {
		r.ILPerCall = after.AvgIL() / after.AvgCalls()
		r.CTPerCall = after.AvgControl() / after.AvgCalls()
	} else {
		r.ILPerCall = after.AvgIL()
		r.CTPerCall = after.AvgControl()
	}

	// Section 4.4: the class mix of the calls that remain after expansion.
	ga := p.CallGraph(after)
	cc := callgraph.Count(ga.Classify(cfg.Classify))
	total := cc.TotalDynamic()
	if total > 0 {
		for i := 0; i < 4; i++ {
			r.PostMix[i] = cc.Dynamic[i] / total
		}
	}
	return r, nil
}

// RunAll runs every benchmark, fanning the suite out over up to
// cfg.Parallelism workers (0 = all cores). Results come back in suite
// order — identical to a serial pass — and progress, if non-nil, is
// called with each benchmark name before it runs.
func RunAll(cfg Config, progress func(string)) ([]*BenchResult, error) {
	suite := Suite()
	results := make([]*BenchResult, len(suite))
	errs := make([]error, len(suite))
	var mu sync.Mutex // serializes the progress callback
	pool.Run(len(suite), cfg.Parallelism, func(_, i int) {
		if progress != nil {
			mu.Lock()
			progress(suite[i].Name)
			mu.Unlock()
		}
		results[i], errs[i] = RunOne(suite[i], cfg)
	})
	var out []*BenchResult
	for i := range suite {
		if errs[i] != nil {
			return out, errs[i]
		}
		out = append(out, results[i])
	}
	return out, nil
}

// Mean and SD over a column, as the paper's AVG/SD rows.
func meanSD(vals []float64) (mean, sd float64) {
	if len(vals) == 0 {
		return 0, 0
	}
	for _, v := range vals {
		mean += v
	}
	mean /= float64(len(vals))
	for _, v := range vals {
		sd += (v - mean) * (v - mean)
	}
	sd = math.Sqrt(sd / float64(len(vals)))
	return mean, sd
}
