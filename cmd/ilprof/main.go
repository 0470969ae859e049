// Command ilprof is the standalone profiler: it runs a MiniC program over
// one or more inputs and prints the averaged profile — function execution
// counts (call-graph node weights) and call-site invocation counts (arc
// weights). With -o the profile is serialized for a later ilcc -inline
// -profile run, mirroring the IMPACT-I profiler-to-compiler interface.
//
//	ilprof prog.c < input              # one run over stdin
//	ilprof -in a.txt -in b.txt prog.c  # one run per -in file
//	ilprof -sites prog.c < input       # include per-site arc weights
//	ilprof -o prog.prof prog.c < input # write the profile to a file
//	ilprof -profile-mode minimal ...   # reduced counters, exact reconstruction
//	ilprof -profile-mode sampled -samplerate 32 ...  # 1-in-32 counting, approximate
//	ilprof -db prog.profdb prog.c ...  # also ingest into a profile database
//	ilprof -post http://host:7411 ...  # also ship the snapshot to ilprofd
//	ilprof -cpuprofile cpu.pprof ...   # pprof the profiler itself
//	ilprof -trace phases.json ...      # Chrome trace-event JSON of pipeline phases
//
// Beyond one-shot profiling, ilprof speaks the persistent profile
// database (see docs/profiles.md):
//
//	ilprof merge -db prog.profdb prog.c        # merged profile for prog.c, staleness reported
//	ilprof merge -db prog.profdb -fingerprint <fp>  # raw merged snapshot
//	ilprof show -db prog.profdb                # list stored records
//	ilprof diff -db prog.profdb <fpA> <fpB>    # compare two program versions
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"inlinec"
	"inlinec/internal/obs"
	"inlinec/internal/profdb"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

type inputList []string

func (f *inputList) String() string { return strings.Join(*f, ",") }
func (f *inputList) Set(s string) error {
	*f = append(*f, s)
	return nil
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "merge":
			return runMerge(args[1:], stdout, stderr)
		case "show":
			return runShow(args[1:], stdout, stderr)
		case "diff":
			return runDiff(args[1:], stdout, stderr)
		}
	}
	return runProfile(args, stdin, stdout, stderr)
}

// runProfile is the classic profiling mode, optionally feeding the result
// into a database file (-db) and/or a running ilprofd (-post).
func runProfile(args []string, stdin io.Reader, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("ilprof", flag.ContinueOnError)
	fs.SetOutput(stderr)
	sites := fs.Bool("sites", false, "print per-call-site arc weights")
	outPath := fs.String("o", "", "write the profile to this file (ilcc -profile consumes it)")
	dbPath := fs.String("db", "", "ingest the profile into this database file (created if missing)")
	postURL := fs.String("post", "", "POST the profile snapshot to this ilprofd base URL")
	gen := fs.Int("gen", -1, "generation stamp for -db/-post (-1 = one past the database's newest)")
	parallel := fs.Int("parallel", 0, "profiling worker count (0 = all cores, 1 = serial); any value yields an identical profile")
	engine := fs.String("engine", "", "interpreter engine: bytecode (default) or switch; both yield identical profiles")
	profileMode := fs.String("profile-mode", "", "profiling instrumentation: full (default; measured is an alias), minimal (reduced counters, exact reconstruction), or sampled (1-in-k counting, approximate)")
	sampleRate := fs.Int("samplerate", 0, "1-in-k rate for -profile-mode sampled (0 = default rate)")
	cpuprofile := fs.String("cpuprofile", "", "write a pprof CPU profile of the profiler itself to this file")
	memprofile := fs.String("memprofile", "", "write a pprof heap profile at exit to this file")
	tracePath := fs.String("trace", "", "write per-phase timings (frontend, profiling runs per worker) as Chrome trace-event JSON to this file")
	var ins inputList
	fs.Var(&ins, "in", "host file used as one profiling run's stdin (repeatable)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	mode, weights, err := inlinec.ParseProfileMode(*profileMode)
	if err == nil && weights != inlinec.WeightsMeasured {
		err = fmt.Errorf("-profile-mode %s is a weight source for ilcc; ilprof measures (want full, minimal, or sampled)", weights)
	}
	if err != nil {
		fmt.Fprintf(stderr, "ilprof: %v\n", err)
		return 2
	}
	opts := inlinec.Options{Parallelism: *parallel, Engine: *engine, ProfileMode: mode, SampleRate: *sampleRate}
	// finish closes an output file after its final write; either error
	// fails the command.
	finish := func(flagName string, f *os.File, err error) {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(stderr, "ilprof: %s: %v\n", flagName, err)
			if code == 0 {
				code = 1
			}
		}
	}
	if *tracePath != "" {
		f, err := os.Create(*tracePath)
		if err != nil {
			fmt.Fprintf(stderr, "ilprof: -trace: %v\n", err)
			return 1
		}
		opts.Obs = obs.NewRegistry()
		defer func() { finish("-trace", f, opts.Obs.WriteChromeTrace(f)) }()
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(stderr, "ilprof: %v\n", err)
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
			fmt.Fprintf(stderr, "ilprof: %v\n", err)
			return 1
		}
		defer func() {
			runtime.GC()
			finish("-memprofile", f, pprof.WriteHeapProfile(f))
		}()
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: ilprof [flags] prog.c")
		fs.PrintDefaults()
		return 2
	}
	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "ilprof: %v\n", err)
		return 1
	}
	prog, err := inlinec.CompileWith(opts, fs.Arg(0), string(src))
	if err != nil {
		fmt.Fprintf(stderr, "ilprof: %v\n", err)
		return 1
	}

	var inputs []inlinec.Input
	if len(ins) == 0 {
		data, _ := io.ReadAll(stdin)
		inputs = []inlinec.Input{{Stdin: data}}
	} else {
		for _, path := range ins {
			data, err := os.ReadFile(path)
			if err != nil {
				fmt.Fprintf(stderr, "ilprof: %v\n", err)
				return 1
			}
			inputs = append(inputs, inlinec.Input{Stdin: data})
		}
	}

	prof, err := prog.ProfileInputs(inputs...)
	if err != nil {
		fmt.Fprintf(stderr, "ilprof: %v\n", err)
		return 1
	}
	if prof.TotalTruncated > 0 {
		fmt.Fprintf(stderr, "ilprof: warning: %d of %d run(s) truncated (returns != calls; exit() before unwinding) — merged arc weights undercount unwound frames\n",
			prof.TotalTruncated, prof.Runs)
	}
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintf(stderr, "ilprof: %v\n", err)
			return 1
		}
		if _, err := prof.WriteTo(f); err != nil {
			f.Close()
			fmt.Fprintf(stderr, "ilprof: %v\n", err)
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(stderr, "ilprof: %v\n", err)
			return 1
		}
	}
	if *dbPath != "" || *postURL != "" {
		if code := publish(prog, prof, filepath.Base(fs.Arg(0)), *dbPath, *postURL, *gen, stderr); code != 0 {
			return code
		}
	}
	fmt.Fprint(stdout, prof.String())

	if *sites {
		g := prog.CallGraph(prof)
		var arcs []int
		for id := range prof.SiteCounts {
			arcs = append(arcs, id)
		}
		sort.Slice(arcs, func(i, j int) bool {
			if prof.SiteCounts[arcs[i]] != prof.SiteCounts[arcs[j]] {
				return prof.SiteCounts[arcs[i]] > prof.SiteCounts[arcs[j]]
			}
			return arcs[i] < arcs[j]
		})
		fmt.Fprintln(stdout, "call sites (arc weights):")
		for _, id := range arcs {
			a := g.Arc(id)
			if a == nil {
				continue
			}
			fmt.Fprintf(stdout, "  site %-4d %-20s -> %-20s %12.1f\n",
				id, a.Caller.Name, a.Callee.Name, prof.SiteWeight(id))
		}
	}
	return 0
}

// publish converts a fresh profile to a stable-key snapshot and delivers
// it to a database file, an ilprofd daemon, or both.
func publish(prog *inlinec.Program, prof *inlinec.Profile, program, dbPath, postURL string, gen int, stderr io.Writer) int {
	if dbPath != "" {
		db, err := profdb.ReadDBFile(dbPath, program)
		if err != nil {
			fmt.Fprintf(stderr, "ilprof: %v\n", err)
			return 1
		}
		g := gen
		if g < 0 {
			g = nextGen(db)
		}
		rec, err := prog.Snapshot(prof, g)
		if err != nil {
			fmt.Fprintf(stderr, "ilprof: %v\n", err)
			return 1
		}
		// Mixing counting modes inside one generation is legal (the record
		// keeps a -1 "mixed" rate marker) but loses the single-number error
		// bound a uniform sampled generation carries, so say so up front.
		// Full and minimal profiles are byte-identical by construction, so
		// the sampling rate is the only observable mode difference.
		if cur, ok := db.Records[profdb.RecordKey{Fingerprint: rec.Fingerprint, Gen: g}]; ok && cur.SampleRate != rec.SampleRate {
			fmt.Fprintf(stderr, "ilprof: warning: gen %d already holds %s profile data for this fingerprint; merging %s runs into it makes the combined counts mixed-rate (no uniform error bound)\n",
				g, rateString(cur.SampleRate), rateString(rec.SampleRate))
		}
		if err := db.Ingest(rec); err != nil {
			fmt.Fprintf(stderr, "ilprof: %v\n", err)
			return 1
		}
		if err := profdb.WriteDBFile(dbPath, db); err != nil {
			fmt.Fprintf(stderr, "ilprof: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "ilprof: ingested %d run(s) into %s (fingerprint %s, gen %d; db now %d record(s), %d run(s))\n",
			prof.Runs, dbPath, rec.Fingerprint, g, len(db.Records), db.TotalRuns())
	}
	if postURL != "" {
		g := gen
		if g < 0 {
			g = 0
		}
		rec, err := prog.Snapshot(prof, g)
		if err != nil {
			fmt.Fprintf(stderr, "ilprof: %v\n", err)
			return 1
		}
		// The retrying client backs off through transient daemon trouble
		// (restarts, 5xx NAKs) but never double-sends after an ambiguous
		// transport failure — ingestion is not idempotent.
		client := profdb.NewClient(postURL)
		client.Warn = stderr
		client.Obs = prog.Obs
		body, err := client.PostSnapshot(program, rec)
		if err != nil {
			fmt.Fprintf(stderr, "ilprof: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "ilprof: posted to %s: %s", postURL, body)
	}
	return 0
}

// rateString names a record's sampling rate for diagnostics.
func rateString(k int) string {
	switch {
	case k == 0:
		return "exactly-counted"
	case k > 0:
		return fmt.Sprintf("1-in-%d sampled", k)
	default:
		return "mixed-rate"
	}
}

// nextGen picks the generation stamp "one past the newest" so repeated
// ilprof -db runs age earlier profiles naturally.
func nextGen(db *profdb.DB) int {
	if len(db.Records) == 0 {
		return 0
	}
	return db.MaxGen() + 1
}

// runMerge serves the merged view of a database. With a prog.c argument
// the merge is resolved against that source (staleness reported, legacy
// ILPROF written with -o); with -fingerprint alone the raw merged
// snapshot is printed.
func runMerge(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ilprof merge", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dbPath := fs.String("db", "", "profile database file (required)")
	fp := fs.String("fingerprint", "", "merge for this program fingerprint instead of compiling a source file")
	halflife := fs.Int("halflife", profdb.DefaultMergeParams().HalfLifeGens, "generation half-life for age decay (0 = no decay)")
	stale := fs.Float64("stale", profdb.DefaultMergeParams().StaleWeight, "weight for records from other program versions (0 = drop)")
	outPath := fs.String("o", "", "write the merged profile to this file (legacy ILPROF with prog.c, snapshot otherwise)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *dbPath == "" || (*fp == "" && fs.NArg() != 1) || (*fp != "" && fs.NArg() != 0) {
		fmt.Fprintln(stderr, "usage: ilprof merge -db file.profdb [flags] prog.c\n       ilprof merge -db file.profdb -fingerprint <fp> [flags]")
		fs.PrintDefaults()
		return 2
	}
	db, err := profdb.ReadDBFile(*dbPath, "")
	if err != nil {
		fmt.Fprintf(stderr, "ilprof: %v\n", err)
		return 1
	}
	params := profdb.MergeParams{HalfLifeGens: *halflife, StaleWeight: *stale}

	if *fp != "" {
		merged, stats := db.Merge(*fp, params)
		if stats.Records == 0 {
			fmt.Fprintf(stderr, "ilprof: no profile data for fingerprint %s in %s\n", *fp, *dbPath)
			return 1
		}
		out := stdout
		if *outPath != "" {
			f, err := os.Create(*outPath)
			if err != nil {
				fmt.Fprintf(stderr, "ilprof: %v\n", err)
				return 1
			}
			defer f.Close()
			out = f
		}
		if _, err := profdb.WriteSnapshot(out, db.Program, merged); err != nil {
			fmt.Fprintf(stderr, "ilprof: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "ilprof: merged %d record(s) (%d exact, %d stale, %d dropped)\n",
			stats.Records, stats.ExactRecords, stats.StaleRecords, stats.DroppedRecords)
		return 0
	}

	src, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "ilprof: %v\n", err)
		return 1
	}
	prog, err := inlinec.Compile(fs.Arg(0), string(src))
	if err != nil {
		fmt.Fprintf(stderr, "ilprof: %v\n", err)
		return 1
	}
	prof, report := prog.ProfileFromDB(db, params)
	if prof.Runs == 0 {
		fmt.Fprintf(stderr, "ilprof: %s holds no usable data for %s (fingerprint %s)\n",
			*dbPath, fs.Arg(0), prog.Fingerprint())
		return 1
	}
	if !report.Clean() {
		fmt.Fprintf(stderr, "%s", report)
	}
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fmt.Fprintf(stderr, "ilprof: %v\n", err)
			return 1
		}
		if _, err := prof.WriteTo(f); err != nil {
			f.Close()
			fmt.Fprintf(stderr, "ilprof: %v\n", err)
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintf(stderr, "ilprof: %v\n", err)
			return 1
		}
	}
	fmt.Fprint(stdout, prof.String())
	return 0
}

// runShow lists a database's contents without merging.
func runShow(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ilprof show", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dbPath := fs.String("db", "", "profile database file (required)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *dbPath == "" || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "usage: ilprof show -db file.profdb")
		fs.PrintDefaults()
		return 2
	}
	db, err := profdb.ReadDBFile(*dbPath, "")
	if err != nil {
		fmt.Fprintf(stderr, "ilprof: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "database %s: program %q, %d record(s), %d run(s), newest gen %d\n",
		*dbPath, db.Program, len(db.Records), db.TotalRuns(), db.MaxGen())
	keys := make([]profdb.RecordKey, 0, len(db.Records))
	for k := range db.Records {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Fingerprint != keys[j].Fingerprint {
			return keys[i].Fingerprint < keys[j].Fingerprint
		}
		return keys[i].Gen < keys[j].Gen
	})
	for _, k := range keys {
		r := db.Records[k]
		trunc := ""
		if r.Truncated > 0 {
			trunc = fmt.Sprintf("  [%d truncated]", r.Truncated)
		}
		if r.SampleRate != 0 {
			trunc += fmt.Sprintf("  [%s]", rateString(r.SampleRate))
		}
		fmt.Fprintf(stdout, "  %s gen %-3d  %6d run(s)  %4d func(s)  %4d site(s)  IL %d%s\n",
			k.Fingerprint, k.Gen, r.Runs, len(r.Funcs), len(r.Sites), r.IL, trunc)
	}
	return 0
}

// runDiff compares the merged profiles of two program versions by stable
// site key, so the comparison survives call-site id shifts between them.
func runDiff(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ilprof diff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dbPath := fs.String("db", "", "profile database file (required)")
	top := fs.Int("top", 20, "show at most this many changed sites")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *dbPath == "" || fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: ilprof diff -db file.profdb <fingerprintA> <fingerprintB>")
		fs.PrintDefaults()
		return 2
	}
	db, err := profdb.ReadDBFile(*dbPath, "")
	if err != nil {
		fmt.Fprintf(stderr, "ilprof: %v\n", err)
		return 1
	}
	params := profdb.MergeParams{HalfLifeGens: 0, StaleWeight: 0} // exact records only, undecayed
	fpA, fpB := fs.Arg(0), fs.Arg(1)
	a, sa := db.Merge(fpA, params)
	b, sb := db.Merge(fpB, params)
	if sa.ExactRecords == 0 || sb.ExactRecords == 0 {
		fmt.Fprintf(stderr, "ilprof: need records for both fingerprints (%s: %d, %s: %d)\n",
			fpA, sa.ExactRecords, fpB, sb.ExactRecords)
		return 1
	}
	// Per-run averages make profiles with different run counts comparable.
	perRun := func(rec *profdb.Record, n int64) float64 {
		if rec.Runs == 0 {
			return 0
		}
		return float64(n) / float64(rec.Runs)
	}
	fmt.Fprintf(stdout, "A %s: %d run(s), %.1f IL/run\nB %s: %d run(s), %.1f IL/run\n",
		fpA, a.Runs, perRun(a, a.IL), fpB, b.Runs, perRun(b, b.IL))

	// Sites are matched on (caller, callee, ordinal) — the same primary
	// identity resolution uses — so a site survives renamed files and
	// reformatting (which only change the position hash).
	type prim struct {
		caller, callee string
		ordinal        int
	}
	fold := func(rec *profdb.Record) map[prim]int64 {
		m := make(map[prim]int64, len(rec.Sites))
		for k, n := range rec.Sites {
			m[prim{k.Caller, k.Callee, k.Ordinal}] += n
		}
		return m
	}
	sitesA, sitesB := fold(a), fold(b)
	name := func(p prim) string { return fmt.Sprintf("%s %s %d", p.caller, p.callee, p.ordinal) }

	type delta struct {
		key    prim
		wa, wb float64
	}
	var changed []delta
	var onlyA, onlyB []prim
	for k, n := range sitesA {
		if m, ok := sitesB[k]; ok {
			changed = append(changed, delta{k, perRun(a, n), perRun(b, m)})
		} else {
			onlyA = append(onlyA, k)
		}
	}
	for k := range sitesB {
		if _, ok := sitesA[k]; !ok {
			onlyB = append(onlyB, k)
		}
	}
	abs := func(x float64) float64 {
		if x < 0 {
			return -x
		}
		return x
	}
	sort.Slice(changed, func(i, j int) bool {
		di, dj := abs(changed[i].wb-changed[i].wa), abs(changed[j].wb-changed[j].wa)
		if di != dj {
			return di > dj
		}
		return name(changed[i].key) < name(changed[j].key)
	})
	sortKeys := func(ks []prim) {
		sort.Slice(ks, func(i, j int) bool { return name(ks[i]) < name(ks[j]) })
	}
	sortKeys(onlyA)
	sortKeys(onlyB)

	shown := 0
	fmt.Fprintf(stdout, "shared sites by |per-run weight change| (top %d of %d):\n", *top, len(changed))
	for _, d := range changed {
		if shown >= *top {
			break
		}
		if d.wa == d.wb {
			break // sorted by |delta|, the rest are unchanged too
		}
		fmt.Fprintf(stdout, "  %-40s %12.1f -> %12.1f\n", name(d.key), d.wa, d.wb)
		shown++
	}
	if shown == 0 {
		fmt.Fprintln(stdout, "  (no shared site changed weight)")
	}
	if len(onlyA) > 0 {
		fmt.Fprintf(stdout, "sites only in A (%d):\n", len(onlyA))
		for _, k := range onlyA {
			fmt.Fprintf(stdout, "  %s\n", name(k))
		}
	}
	if len(onlyB) > 0 {
		fmt.Fprintf(stdout, "sites only in B (%d):\n", len(onlyB))
		for _, k := range onlyB {
			fmt.Fprintf(stdout, "  %s\n", name(k))
		}
	}
	return 0
}
