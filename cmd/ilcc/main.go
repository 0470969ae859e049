// Command ilcc is the MiniC compiler driver: it compiles source files to
// IL and can dump the IL, the weighted call graph (text or dot), run the
// program, profile it, and apply profile-guided inline expansion.
//
//	ilcc prog.c                      # compile, report sizes
//	ilcc -run prog.c < input         # compile and execute
//	ilcc -dump prog.c                # print the IL
//	ilcc -dot prog.c                 # call graph in Graphviz dot
//	ilcc -inline -run prog.c         # profile on stdin, inline, re-run
//	ilcc -inline -heuristic leaf ... # static baseline policies
//	ilcc -inline -run a.c b.c c.c    # separate compilation + link-time inlining
//	ilcc -tco -run prog.c            # remove self tail recursion first
//	ilcc -inline -profile p.prof ... # use a profile saved by ilprof -o
//	ilcc -inline -profdb p.profdb .. # merged profile from a database file
//	ilcc -inline -profdb http://host:7411 ...  # ... or from a running ilprofd
//	ilcc -inline -partial-inline -maxcallee 60 prog.c  # split oversized callees
//	ilcc -inline -devirt-threshold 0.9 prog.c  # guarded pointer-call devirtualization
//	ilcc -explain-inline prog.c      # per-arc inline decision report (implies -inline)
//	ilcc -inline -inline-trace t.jsonl prog.c  # machine-readable decision trace
//	ilcc -inline -trace phases.json prog.c     # Chrome trace-event phase timings
//
// The decision report and JSONL trace are deterministic: byte-identical
// at any -parallel setting. The Chrome trace carries wall-clock phase
// timings and is the only output that varies run to run.
//
// The simulated file system is populated with -file guest=host pairs.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"inlinec"
	"inlinec/internal/inline"
	"inlinec/internal/obs"
	"inlinec/internal/profdb"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

type fileList []string

func (f *fileList) String() string { return strings.Join(*f, ",") }
func (f *fileList) Set(s string) error {
	*f = append(*f, s)
	return nil
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ilcc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	doRun := fs.Bool("run", false, "execute the program (stdin is the program's stdin)")
	dump := fs.Bool("dump", false, "print the IL module")
	dot := fs.Bool("dot", false, "print the call graph in dot format")
	doInline := fs.Bool("inline", false, "profile once and apply inline expansion")
	postOpt := fs.Bool("O", false, "apply post-inline cleanup optimizations")
	tco := fs.Bool("tco", false, "eliminate self tail calls before anything else")
	heuristic := fs.String("heuristic", "profile", "site selection: profile, leaf, or small")
	threshold := fs.Float64("threshold", 10, "arc weight threshold (profile heuristic)")
	sizeLimit := fs.Float64("sizelimit", 1.25, "program size limit factor")
	maxCallee := fs.Int("maxcallee", 0, "per-callee instruction limit (0 = unlimited)")
	partialInline := fs.Bool("partial-inline", false, "expand the hot entry region of callees over -maxcallee, with a guarded fallback call to the original")
	devirtThreshold := fs.Float64("devirt-threshold", 0, "devirtualize pointer-call sites whose dominant profiled target takes at least this fraction of resolved calls (0 = off)")
	stats := fs.Bool("stats", false, "print dynamic statistics after -run")
	profilePath := fs.String("profile", "", "use a saved profile (from ilprof -o) for -inline")
	profdbSrc := fs.String("profdb", "", "use a merged database profile for -inline: a .profdb file or an ilprofd base URL")
	parallel := fs.Int("parallel", 0, "worker count for multi-unit compilation, profiling, and expansion (0 = all cores, 1 = serial); any value yields identical output")
	engine := fs.String("engine", "", "interpreter engine for -run/-inline profiling: bytecode (default) or switch; identical output either way")
	profileMode := fs.String("profile-mode", "", "profile source/instrumentation: full (default), minimal, or sampled select measured instrumentation; measured is an alias for full; predicted synthesizes weights from static features with zero profiling runs; hybrid merges a -profdb snapshot (exact sites measured, moved/dropped/new sites predicted)")
	sampleRate := fs.Int("samplerate", 0, "1-in-k rate for -profile-mode sampled (0 = default rate)")
	explainInline := fs.Bool("explain-inline", false, "print the per-arc inline decision report — every arc with its accept/reject reason (implies -inline)")
	inlineTrace := fs.String("inline-trace", "", "write the inline-decision trace as JSON lines to this file (implies -inline)")
	tracePath := fs.String("trace", "", "write per-phase timings as Chrome trace-event JSON to this file (load in chrome://tracing or Perfetto)")
	var files fileList
	fs.Var(&files, "file", "seed the simulated FS: guestpath=hostpath (repeatable)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *explainInline || *inlineTrace != "" {
		*doInline = true
	}
	var reg *obs.Registry
	if *tracePath != "" {
		reg = obs.NewRegistry()
		defer func() {
			f, err := os.Create(*tracePath)
			if err != nil {
				fmt.Fprintf(stderr, "ilcc: -trace: %v\n", err)
				return
			}
			if err := reg.WriteChromeTrace(f); err != nil {
				fmt.Fprintf(stderr, "ilcc: -trace: %v\n", err)
			}
			f.Close()
		}()
	}

	if fs.NArg() < 1 {
		fmt.Fprintln(stderr, "usage: ilcc [flags] prog.c [more.c ...]")
		fs.PrintDefaults()
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintf(stderr, "ilcc: %v\n", err)
		return 1
	}

	srcPath := fs.Arg(0)
	var prog *inlinec.Program
	if fs.NArg() == 1 {
		src, err := os.ReadFile(srcPath)
		if err != nil {
			return fail(err)
		}
		prog, err = inlinec.CompileWithObs(srcPath, string(src), reg)
		if err != nil {
			return fail(err)
		}
	} else {
		// Separate compilation + linking (section 2.1 of the paper):
		// units compile concurrently on the -parallel worker pool, then
		// link. Diagnostics come back in command-line order regardless of
		// which worker found them.
		sources := make([]inlinec.UnitSource, 0, fs.NArg())
		for _, path := range fs.Args() {
			src, err := os.ReadFile(path)
			if err != nil {
				return fail(err)
			}
			sources = append(sources, inlinec.UnitSource{Name: path, Src: string(src)})
		}
		var err error
		prog, err = inlinec.CompileAndLinkObs("a.out", *parallel, reg, sources...)
		if err != nil {
			return fail(err)
		}
	}
	// -profile-mode covers two axes: the instrumentation modes
	// (full/minimal/sampled) flow into the interpreter, while the
	// profile-source modes (measured/predicted/hybrid) select where
	// -inline gets its arc weights. The source modes leave the
	// interpreter on full instrumentation for any run they perform.
	profSource := ""
	switch *profileMode {
	case "measured", "predicted", "hybrid":
		profSource = *profileMode
		*profileMode = ""
	}
	prog.Parallelism = *parallel
	prog.Engine = *engine
	prog.ProfileMode = *profileMode
	prog.SampleRate = *sampleRate

	if *tco {
		n, err := prog.EliminateTailCalls()
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stderr, "ilcc: rewrote %d self tail call(s)\n", n)
	}

	input := inlinec.Input{Files: make(map[string][]byte)}
	for _, spec := range files {
		parts := strings.SplitN(spec, "=", 2)
		if len(parts) != 2 {
			return fail(fmt.Errorf("bad -file spec %q (want guest=host)", spec))
		}
		data, err := os.ReadFile(parts[1])
		if err != nil {
			return fail(err)
		}
		input.Files[parts[0]] = data
	}
	if *doRun || *doInline {
		data, err := io.ReadAll(stdin)
		if err != nil {
			return fail(err)
		}
		input.Stdin = data
	}

	if *doInline {
		var prof *inlinec.Profile
		switch {
		case *profdbSrc != "" && *profilePath != "":
			return fail(fmt.Errorf("-profile and -profdb are mutually exclusive"))
		case profSource == "predicted":
			if *profilePath != "" || *profdbSrc != "" {
				return fail(fmt.Errorf("-profile-mode=predicted takes no measured profile; drop -profile/-profdb or use -profile-mode=hybrid"))
			}
			// Zero profiling runs: weights come from static features and
			// the embedded calibrated model alone.
			prof = prog.PredictProfile()
		case profSource == "hybrid":
			if *profdbSrc == "" {
				return fail(fmt.Errorf("-profile-mode=hybrid needs -profdb (a .profdb file or an ilprofd base URL)"))
			}
			var err error
			prof, err = hybridFromDB(prog, *profdbSrc, stderr)
			if err != nil {
				if !strings.HasPrefix(*profdbSrc, "http://") && !strings.HasPrefix(*profdbSrc, "https://") {
					return fail(err)
				}
				// The profile daemon being down must not fail the compile: the
				// whole point of hybrid is surviving missing measurements,
				// so degrade to pure prediction and keep going.
				fmt.Fprintf(stderr, "ilcc: warning: profile database %s unavailable (%v); falling back to predicted weights\n",
					*profdbSrc, err)
				prof = prog.PredictProfile()
			}
		case *profdbSrc != "":
			var err error
			prof, err = profileFromDB(prog, *profdbSrc, stderr)
			if err != nil {
				if !strings.HasPrefix(*profdbSrc, "http://") && !strings.HasPrefix(*profdbSrc, "https://") {
					return fail(err) // a local file is deterministic config: failing it is a bug to surface
				}
				// The profile daemon being down must not fail the compile:
				// degrade to in-process profiling and keep going.
				fmt.Fprintf(stderr, "ilcc: warning: profile database %s unavailable (%v); falling back to in-process profiling\n",
					*profdbSrc, err)
				prof, err = prog.ProfileInputs(input)
				if err != nil {
					return fail(fmt.Errorf("profiling: %w", err))
				}
			}
		case *profilePath != "":
			f, err := os.Open(*profilePath)
			if err != nil {
				return fail(err)
			}
			prof, err = inlinec.ReadProfile(f)
			f.Close()
			if err != nil {
				return fail(err)
			}
		default:
			var err error
			prof, err = prog.ProfileInputs(input)
			if err != nil {
				return fail(fmt.Errorf("profiling: %w", err))
			}
		}
		params := inlinec.DefaultParams()
		params.WeightThreshold = *threshold
		params.SizeLimitFactor = *sizeLimit
		params.MaxCalleeSize = *maxCallee
		params.PartialInline = *partialInline
		params.DevirtThreshold = *devirtThreshold
		if *devirtThreshold < 0 || *devirtThreshold > 1 {
			return fail(fmt.Errorf("-devirt-threshold %g outside [0, 1]", *devirtThreshold))
		}
		switch *heuristic {
		case "profile":
		case "leaf":
			params.Heuristic = inline.HeuristicLeaf
		case "small":
			params.Heuristic = inline.HeuristicSmall
		default:
			return fail(fmt.Errorf("unknown heuristic %q", *heuristic))
		}
		res, err := prog.Inline(prof, params)
		if err != nil {
			return fail(err)
		}
		if *postOpt {
			if err := prog.Optimize(); err != nil {
				return fail(err)
			}
		}
		if *inlineTrace != "" {
			f, err := os.Create(*inlineTrace)
			if err != nil {
				return fail(err)
			}
			err = obs.WriteInlineTraceJSONL(f, res.Trace)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return fail(fmt.Errorf("-inline-trace: %w", err))
			}
		}
		if *explainInline {
			fmt.Fprint(stdout, obs.FormatInlineReport(res.Order, res.Trace))
		}
		fmt.Fprintf(stderr, "%s", res)
	}

	switch {
	case *dump:
		fmt.Fprint(stdout, prog.Module.String())
	case *dot:
		prof, err := prog.ProfileInputs(input)
		if err != nil {
			return fail(err)
		}
		fmt.Fprint(stdout, prog.CallGraph(prof).Dot())
	case *doRun:
		out, err := prog.Run(input)
		if err != nil {
			return fail(err)
		}
		fmt.Fprint(stdout, out.Stdout)
		fmt.Fprint(stderr, out.Stderr)
		if *stats {
			fmt.Fprintf(stderr, "IL=%d control=%d calls=%d (extern %d, ptr %d) maxstack=%dB\n",
				out.Stats.IL, out.Stats.Control, out.Stats.Calls,
				out.Stats.ExternCalls, out.Stats.PtrCalls, out.Stats.MaxStack)
		}
		return int(out.ExitCode)
	default:
		fmt.Fprintf(stdout, "%s: %d functions, %d IL instructions\n",
			srcPath, len(prog.Module.Funcs), prog.Module.TotalCodeSize())
	}
	return 0
}

// profileFromDB obtains the merged database profile for the compiled
// program — from a local .profdb file, or over HTTP from a running
// ilprofd when src is a base URL. Either way the stable-key snapshot is
// resolved against the current module and any staleness is reported to
// stderr before the weights feed the call graph.
func profileFromDB(prog *inlinec.Program, src string, stderr io.Writer) (*inlinec.Profile, error) {
	if !strings.HasPrefix(src, "http://") && !strings.HasPrefix(src, "https://") {
		db, err := profdb.ReadDBFile(src, "")
		if err != nil {
			return nil, err
		}
		prof, report := prog.ProfileFromDB(db, profdb.DefaultMergeParams())
		if prof.Runs == 0 {
			return nil, fmt.Errorf("%s holds no usable data for fingerprint %s", src, prog.Fingerprint())
		}
		if !report.Clean() {
			fmt.Fprintf(stderr, "%s\n", report)
		}
		return prof, nil
	}

	client := profdb.NewClient(src)
	client.Warn = stderr
	client.Obs = prog.Obs
	_, rec, err := client.FetchProfile(prog.Fingerprint(), nil)
	if err != nil {
		return nil, err
	}
	prof, stats := rec.Resolve(profdb.ModuleKeys(prog.Module))
	if prof.Runs == 0 {
		return nil, fmt.Errorf("%s served an empty profile", src)
	}
	if stats.MovedSites > 0 || stats.DroppedSites > 0 || stats.DroppedFuncs > 0 {
		report := &profdb.Report{Resolve: *stats}
		fmt.Fprintf(stderr, "%s\n", report)
	}
	return prof, nil
}

// hybridFromDB obtains the hybrid (measured-where-exact, predicted
// elsewhere) profile from a database file or a running ilprofd. Unlike
// the measured path, an empty or fully stale database is not an error:
// prediction fills whatever measurement cannot cover, and only the
// staleness report tells the difference.
func hybridFromDB(prog *inlinec.Program, src string, stderr io.Writer) (*inlinec.Profile, error) {
	if !strings.HasPrefix(src, "http://") && !strings.HasPrefix(src, "https://") {
		db, err := profdb.ReadDBFile(src, "")
		if err != nil {
			return nil, err
		}
		prof, report := prog.HybridProfileFromDB(db, profdb.DefaultMergeParams())
		if !report.Clean() {
			fmt.Fprintf(stderr, "%s\n", report)
		}
		return prof, nil
	}
	client := profdb.NewClient(src)
	client.Warn = stderr
	client.Obs = prog.Obs
	_, rec, err := client.FetchProfile(prog.Fingerprint(), nil)
	if err != nil {
		return nil, err
	}
	prof, stats := prog.HybridProfileFromRecord(rec)
	if stats.MovedSites > 0 || stats.DroppedSites > 0 || stats.DroppedFuncs > 0 {
		report := &profdb.Report{Resolve: *stats}
		fmt.Fprintf(stderr, "%s\n", report)
	}
	return prof, nil
}
