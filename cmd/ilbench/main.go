// Command ilbench regenerates the paper's experimental tables over the
// twelve-benchmark suite:
//
//	ilbench              # all tables
//	ilbench -table 4     # one table (1, 2, 3, 4, or 4x)
//	ilbench -bench grep  # restrict to one benchmark
//	ilbench -threshold 100 -sizelimit 1.5 -postopt   # parameter overrides
//	ilbench -bench funcptrs -devirt-threshold 0.9 -partial-inline -maxcallee 40  # guarded expansion
//	ilbench -ablation    # design-choice studies (threshold/size/heuristic/order)
//	ilbench -icache      # instruction-cache sweep (conclusion's extension)
//	ilbench -parallel 1  # serial run (default 0 uses every core; same tables)
//	ilbench -engine switch          # the pre-bytecode oracle interpreter
//	ilbench -engine both -json      # both engines, one report (perf comparison)
//	ilbench -profile-mode all       # full/minimal/sampled profiling overhead comparison
//	ilbench -profile-mode sampled -samplerate 32   # one reduced mode only
//	ilbench -profile-mode predicted # profile-free: inline with synthesized weights
//	ilbench -agreement -bench espresso -minagree 80  # predicted-vs-measured decision diff
//	ilbench -json        # machine-readable results (see BENCH_baseline.json)
//	ilbench -bench espresso -baseline BENCH_baseline.json  # perf gate
//	ilbench -bench espresso -profdb 32   # profile-database ingest/merge benchmark
//	ilbench -cpuprofile cpu.pprof -memprofile mem.pprof    # hot-path profiling
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"

	"inlinec"
	"inlinec/internal/bench"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderrW io.Writer) (code int) {
	fs := flag.NewFlagSet("ilbench", flag.ContinueOnError)
	fs.SetOutput(stderrW)
	table := fs.String("table", "all", "table to print: 1, 2, 3, 4, 4x, or all")
	benchName := fs.String("bench", "", "run a single benchmark by name")
	threshold := fs.Float64("threshold", 10, "arc weight threshold")
	stackBound := fs.Int("stackbound", 4096, "stack bound in bytes for recursion hazard")
	sizeLimit := fs.Float64("sizelimit", 1.25, "program size limit factor")
	maxCallee := fs.Int("maxcallee", 0, "per-callee instruction limit (0 = unlimited)")
	partialInline := fs.Bool("partial-inline", false, "expand the hot entry region of callees over -maxcallee with a guarded fallback call")
	devirtThreshold := fs.Float64("devirt-threshold", 0, "devirtualize pointer-call sites whose dominant profiled target takes at least this fraction of resolved calls (0 = off)")
	maxRuns := fs.Int("runs", 0, "cap profiling runs per benchmark (0 = all)")
	parallel := fs.Int("parallel", 0, "worker count for benchmarks and profiling runs (0 = all cores, 1 = serial); any value yields identical tables")
	engine := fs.String("engine", "bytecode", "interpreter engine: bytecode, switch, or both (identical tables; different wall clock)")
	profileMode := fs.String("profile-mode", "full", "profiling instrumentation: full (alias measured), minimal, sampled, all (every instrumentation mode), or predicted (inline with synthesized weights; zero profiling runs behind the decisions); hybrid needs a profile database and is rejected")
	sampleRate := fs.Int("samplerate", 0, "1-in-k rate for sampled profiling (0 = default rate)")
	jsonOut := fs.Bool("json", false, "emit machine-readable per-benchmark results instead of the tables")
	postOpt := fs.Bool("postopt", false, "apply post-inline cleanup passes before measuring")
	profdbSnaps := fs.Int("profdb", 0, "also run the profile-database pipeline benchmark with this many snapshots (0 = off)")
	agreement := fs.Bool("agreement", false, "diff predicted-vs-measured inlining decisions instead of running the tables")
	minAgree := fs.Float64("minagree", 0, "with -agreement, fail if the agreement score falls below this percentage")
	ablation := fs.Bool("ablation", false, "run the design-choice ablation studies instead of the tables")
	icache := fs.Bool("icache", false, "run the instruction-cache sweep instead of the tables")
	verbose := fs.Bool("v", false, "print per-benchmark progress and expansion details")
	cpuprofile := fs.String("cpuprofile", "", "write a pprof CPU profile of the run to this file")
	memprofile := fs.String("memprofile", "", "write a pprof heap profile at exit to this file")
	baselinePath := fs.String("baseline", "", "compare per-run wall time against this -json report and fail on regression")
	maxRegress := fs.Float64("maxregress", 2.0, "allowed wall-time factor over -baseline before failing")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	// finish closes an output file after its final write; either error
	// fails the command.
	finish := func(flagName string, f *os.File, err error) {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(stderrW, "ilbench: %s: %v\n", flagName, err)
			if code == 0 {
				code = 1
			}
		}
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(stderrW, "ilbench: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			finish("-cpuprofile", f, err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			finish("-cpuprofile", f, nil)
		}()
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			fmt.Fprintf(stderrW, "ilbench: %v\n", err)
			return 1
		}
		defer func() {
			runtime.GC()
			finish("-memprofile", f, pprof.WriteHeapProfile(f))
		}()
	}

	cfg := bench.DefaultConfig()
	cfg.Inline.WeightThreshold = *threshold
	cfg.Inline.StackBound = *stackBound
	cfg.Inline.SizeLimitFactor = *sizeLimit
	cfg.Inline.MaxCalleeSize = *maxCallee
	cfg.Inline.PartialInline = *partialInline
	cfg.Inline.DevirtThreshold = *devirtThreshold
	cfg.Classify.WeightThreshold = *threshold
	cfg.Classify.StackBound = *stackBound
	cfg.MaxRuns = *maxRuns
	cfg.PostOptimize = *postOpt
	cfg.Parallelism = *parallel

	var engines []string
	switch *engine {
	case "", "bytecode", "switch":
		engines = []string{*engine}
	case "both":
		engines = []string{"bytecode", "switch"}
	default:
		fmt.Fprintf(stderrW, "ilbench: unknown engine %q (want bytecode, switch, or both)\n", *engine)
		return 2
	}
	cfg.Engine = engines[0]

	modes := []string{"full", "minimal", "sampled"}
	if *profileMode != "all" {
		_, weights, err := inlinec.ParseProfileMode(*profileMode)
		if err == nil && weights == inlinec.WeightsHybrid {
			err = fmt.Errorf("-profile-mode hybrid needs a profile database; ilbench measures or predicts weights")
		}
		if err != nil {
			fmt.Fprintf(stderrW, "ilbench: %v\n", err)
			return 2
		}
		modes = []string{*profileMode}
	}
	cfg.ProfileMode = modes[0]
	cfg.SampleRate = *sampleRate

	if *ablation {
		report, err := bench.AblationReport(cfg)
		if err != nil {
			fmt.Fprintf(stderrW, "ilbench: %v\n", err)
			return 1
		}
		fmt.Fprint(stdout, report)
		return 0
	}
	if *icache {
		report, err := bench.ICacheReport(
			[]string{"cccp", "compress", "eqn", "espresso", "grep", "yacc"},
			[]int{256, 512, 1024, 2048}, cfg)
		if err != nil {
			fmt.Fprintf(stderrW, "ilbench: %v\n", err)
			return 1
		}
		fmt.Fprint(stdout, report)
		return 0
	}

	if *agreement {
		names := []string{"espresso"}
		if *benchName != "" {
			names = []string{*benchName}
		}
		var agrResults []*bench.AgreementResult
		for _, name := range names {
			b := bench.Get(name)
			if b == nil {
				fmt.Fprintf(stderrW, "ilbench: unknown benchmark %q (have %v)\n", name, bench.SuiteNames())
				return 2
			}
			r, err := bench.RunAgreement(b, cfg)
			if err != nil {
				fmt.Fprintf(stderrW, "ilbench: %v\n", err)
				return 1
			}
			agrResults = append(agrResults, r)
		}
		if *jsonOut {
			data, err := bench.MarshalResults(nil, cfg.Parallelism, nil, agrResults)
			if err != nil {
				fmt.Fprintf(stderrW, "ilbench: %v\n", err)
				return 1
			}
			stdout.Write(data)
		} else {
			for _, r := range agrResults {
				fmt.Fprint(stdout, r)
			}
		}
		if *minAgree > 0 {
			for _, r := range agrResults {
				if r.ScorePct < *minAgree {
					fmt.Fprintf(stderrW, "ilbench: %s agreement %.1f%% below the %.1f%% floor\n",
						r.Name, r.ScorePct, *minAgree)
					return 1
				}
			}
			fmt.Fprintf(stderrW, "ilbench: agreement at or above the %.1f%% floor\n", *minAgree)
		}
		return 0
	}

	var results []*bench.BenchResult
	var err error
	progress := func(name string) {
		if *verbose {
			fmt.Fprintf(stderrW, "running %s...\n", name)
		}
	}
outer:
	for _, eng := range engines {
		cfg.Engine = eng
		for _, mode := range modes {
			cfg.ProfileMode = mode
			if *benchName != "" {
				b := bench.Get(*benchName)
				if b == nil {
					fmt.Fprintf(stderrW, "ilbench: unknown benchmark %q (have %v)\n", *benchName, bench.SuiteNames())
					return 2
				}
				progress(b.Name)
				var r *bench.BenchResult
				r, err = bench.RunOne(b, cfg)
				if r != nil {
					results = append(results, r)
				}
			} else {
				var rs []*bench.BenchResult
				rs, err = bench.RunAll(cfg, progress)
				results = append(results, rs...)
			}
			if err != nil {
				break outer
			}
		}
	}
	cfg.Engine = engines[0]
	cfg.ProfileMode = modes[0]
	if err != nil {
		fmt.Fprintf(stderrW, "ilbench: %v\n", err)
		return 1
	}

	if *baselinePath != "" {
		base, err := bench.ReadReport(*baselinePath)
		if err != nil {
			fmt.Fprintf(stderrW, "ilbench: %v\n", err)
			return 1
		}
		if err := bench.CheckRegression(results, base, *maxRegress); err != nil {
			fmt.Fprintf(stderrW, "ilbench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderrW, "ilbench: wall time within %.1fx of %s\n", *maxRegress, *baselinePath)
	}

	var pdbResults []*bench.ProfDBResult
	if *profdbSnaps > 0 {
		names := []string{"espresso"}
		if *benchName != "" {
			names = []string{*benchName}
		}
		for _, name := range names {
			r, err := bench.RunProfDB(name, *profdbSnaps, cfg)
			if err != nil {
				fmt.Fprintf(stderrW, "ilbench: %v\n", err)
				return 1
			}
			pdbResults = append(pdbResults, r)
		}
	}

	if *jsonOut {
		data, err := bench.MarshalResults(results, cfg.Parallelism, pdbResults, nil)
		if err != nil {
			fmt.Fprintf(stderrW, "ilbench: %v\n", err)
			return 1
		}
		stdout.Write(data)
		return 0
	}

	switch *table {
	case "1":
		fmt.Fprint(stdout, bench.Table1(results))
	case "2":
		fmt.Fprint(stdout, bench.Table2(results))
	case "3":
		fmt.Fprint(stdout, bench.Table3(results))
	case "4":
		fmt.Fprint(stdout, bench.Table4(results))
	case "4x":
		fmt.Fprint(stdout, bench.Table4x(results))
	default:
		fmt.Fprint(stdout, bench.AllTables(results))
	}
	if t := bench.OverheadTable(results); t != "" {
		fmt.Fprintf(stdout, "\n%s", t)
	}
	for _, r := range pdbResults {
		fmt.Fprintf(stdout, "\n%s", r)
	}
	if *verbose {
		for _, r := range results {
			fmt.Fprintf(stdout, "\n--- %s: %d expansions, cache hit rate %.0f%%\n%s",
				r.Name, r.Expansions, 100*r.Result.Cache.HitRate(), r.Result)
		}
	}
	return 0
}
