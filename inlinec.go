// Package inlinec is a reproduction of "Inline Function Expansion for
// Compiling C Programs" (Hwu & Chang, PLDI 1989): the IMPACT-I C
// compiler's profile-guided inline function expander, together with every
// substrate it needs — a C-subset (MiniC) front end, a three-address
// intermediate language (IL), an interpreting profiler with a simulated
// UNIX environment, a weighted call graph with the paper's $$$/### summary
// nodes, and the surrounding classical optimizations.
//
// The high-level pipeline matches the paper:
//
//	prog := inlinec.MustCompile("prog.c", src)     // front end -> IL
//	prof := prog.Profile(inputs...)                // many representative runs
//	res, _ := prog.Inline(prof, inlinec.DefaultParams()) // expansion
//	after := prog.Profile(inputs...)               // measure the effect
//
// Compile/Profile/Inline never mutate each other's results implicitly:
// Inline transforms the Program's module in place and returns a report,
// while the original module remains available via Original.
package inlinec

import (
	"errors"
	"fmt"
	"io"

	"inlinec/internal/callgraph"
	"inlinec/internal/icache"
	"inlinec/internal/inline"
	"inlinec/internal/interp"
	"inlinec/internal/ir"
	"inlinec/internal/irgen"
	"inlinec/internal/link"
	"inlinec/internal/obs"
	"inlinec/internal/opt"
	"inlinec/internal/parser"
	"inlinec/internal/pool"
	"inlinec/internal/predict"
	"inlinec/internal/profdb"
	"inlinec/internal/profile"
	"inlinec/internal/sema"
)

// Params re-exports the inline expander's configuration.
type Params = inline.Params

// Result re-exports the inline expander's report.
type Result = inline.Result

// Profile re-exports averaged multi-run profile data.
type Profile = profile.Profile

// RunStats re-exports single-run dynamic counts.
type RunStats = profile.RunStats

// ReadProfile parses a profile previously serialized with
// Profile.WriteTo — the file interface that lets the profiler and the
// compiler run as separate tool invocations, as IMPACT-I's did.
func ReadProfile(r io.Reader) (*Profile, error) { return profile.ReadProfile(r) }

// ProfDB re-exports the persistent profile database: the multi-run,
// multi-version replacement for single-shot ILPROF files, keyed by stable call-site
// fingerprints instead of raw ids (see internal/profdb and
// docs/profiles.md).
type ProfDB = profdb.DB

// ProfDBRecord re-exports one database record — also the ilprofd
// ingest/serve payload.
type ProfDBRecord = profdb.Record

// ProfDBMergeParams re-exports the weighted-merge tuning (age decay half
// life and stale-version down-weighting).
type ProfDBMergeParams = profdb.MergeParams

// ProfDBReport re-exports the staleness accounting from consuming a
// database.
type ProfDBReport = profdb.Report

// NewProfDB returns an empty profile database for a program.
func NewProfDB(program string) *ProfDB { return profdb.NewDB(program) }

// DefaultProfDBMergeParams returns the default decay/staleness weights.
func DefaultProfDBMergeParams() ProfDBMergeParams { return profdb.DefaultMergeParams() }

// Fingerprint identifies the working module's program version for the
// profile database: profiles snapshot under this fingerprint, and
// ProfileFromDB merges records for it.
func (p *Program) Fingerprint() string { return profdb.ModuleFingerprint(p.Module) }

// Snapshot converts a profile collected on the working module into a
// stable-key database record at the given generation, ready for
// DB.Ingest or an ilprofd POST /ingest.
func (p *Program) Snapshot(prof *Profile, gen int) (*ProfDBRecord, error) {
	return profdb.SnapshotOf(prof, p.Module, gen)
}

// ProfileFromDB merges the database for the working module's fingerprint
// and remaps the stable keys back onto current call-site ids, yielding
// the profile CallGraph/Inline consume plus the staleness report. Records
// from other program versions are down-weighted or dropped per params,
// and site keys that no longer resolve are dropped and reported — never
// silently attributed to a shifted raw id.
func (p *Program) ProfileFromDB(db *ProfDB, params ProfDBMergeParams) (*Profile, *ProfDBReport) {
	return db.ProfileFor(p.Fingerprint(), profdb.ModuleKeys(p.Module), params)
}

// PredictProfile synthesizes a profile for the working module from
// static features alone — zero profiling runs — using the embedded
// calibrated model. The result is shaped exactly like a measured
// profile (node weights, arc weights, pointer-target dominance guesses),
// so Inline, guarded devirtualization, and partial inlining consume it
// unchanged. Deterministic: the same module always predicts the same
// profile. Runs under a "predict" span on the program's registry.
func (p *Program) PredictProfile() *Profile {
	defer p.Obs.StartSpan("predict")()
	return predict.Synthesize(p.Module, predict.DefaultModel())
}

// HybridProfileFromDB implements -profile-mode=hybrid against a profile
// database: the database is merged and resolved as in ProfileFromDB,
// then sites whose fingerprint resolution reported `exact` keep their
// measured weights while moved, dropped, and new sites take predictions.
// The returned report carries the underlying resolution accounting.
func (p *Program) HybridProfileFromDB(db *ProfDB, params ProfDBMergeParams) (*Profile, *ProfDBReport) {
	measured, report := p.ProfileFromDB(db, params)
	return predict.Hybrid(p.PredictProfile(), measured, report.Resolve.ExactIDs), report
}

// Graph re-exports the weighted call graph.
type Graph = callgraph.Graph

// ClassifyParams re-exports the call-site classification thresholds.
type ClassifyParams = callgraph.ClassifyParams

// DefaultParams returns the paper's thresholds (weight ≥ 10, 4 KiB stack
// bound for recursion, calibrated 1.25× program-size cap).
func DefaultParams() Params { return inline.DefaultParams() }

// DefaultClassifyParams returns the paper's classification thresholds.
func DefaultClassifyParams() ClassifyParams { return callgraph.DefaultClassifyParams() }

// Input is one program execution request: file system, stdin, and an
// optional stack-size override.
type Input struct {
	// Files populates the simulated file system (path -> contents).
	Files map[string][]byte
	// Stdin is the standard-input stream.
	Stdin []byte
	// StackSize overrides the 4 MiB default control stack when positive.
	StackSize int
}

// RunOutput is the observable behaviour of one run.
type RunOutput struct {
	Stdout   string
	Stderr   string
	ExitCode int64
	// Files is the file system after the run (including written files).
	Files map[string][]byte
	Stats *RunStats
}

// Options configures every pipeline stage a Program runs: how many
// workers it fans out over, where phase spans and metrics go, which
// interpreter engine executes it, and how much profiling
// instrumentation its runs carry. The zero value is the default
// configuration. CompileWith and CompileAndLink take one, and Program
// embeds it, so a field set before compilation holds for every later
// stage and can still be changed between stages.
type Options struct {
	// Parallelism bounds the worker pools the whole table-regeneration
	// pipeline fans out over: 0 uses every core, 1 runs serially, N uses
	// N workers. Compilation runs the pre-inline passes and separate
	// units concurrently; ProfileInputs distributes profiling runs
	// (independent Machine and Env per run, merged in input order, so any
	// setting produces bit-identical profiles); Inline schedules physical
	// expansion's dependency waves over the same bound; Optimize runs the
	// per-function cleanup pipelines concurrently. Every setting produces
	// byte-identical modules, decision lists, and tables.
	Parallelism int

	// Obs, when set, receives phase spans (frontend/link/profile/
	// callgraph/expand/opt) and pipeline metrics from compilation and
	// every later operation on the program. Observation never feeds back
	// into compilation: modules, decision lists, and traces are
	// byte-identical with or without a registry attached, at any
	// Parallelism. A nil registry is a no-op.
	Obs *obs.Registry

	// Engine selects the interpreter engine for Run/Profile/SimulateICache:
	// interp.EngineBytecode (the default when empty) or interp.EngineSwitch.
	// Both engines produce bit-identical outputs, profiles, and traces; the
	// switch engine is retained as the differential-testing oracle.
	Engine string

	// ProfileMode selects which profiling counters Run and ProfileInputs
	// increment: interp.ProfileFull (the default when empty) counts every
	// arc and entry, interp.ProfileMinimal counts arcs and pointer-call
	// entries and derives every other entry count from the arc counts,
	// and interp.ProfileSampled additionally counts 1-in-k events and
	// rescales. Minimal profiles are byte-identical to full ones; sampled
	// profiles are approximate. The reduced modes perform fewer counter
	// increments but take about as long. Both engines honor the mode
	// identically. ParseProfileMode maps a -profile-mode flag value onto
	// this field.
	ProfileMode string

	// SampleRate is the 1-in-k rate for interp.ProfileSampled (0 uses
	// interp.DefaultSampleRate, 1 counts everything). Ignored by the
	// other modes.
	SampleRate int
}

// The weight sources a -profile-mode value can name: where the arc
// weights Inline consumes come from.
const (
	// WeightsMeasured profiles the program on its inputs (ProfileInputs,
	// a saved profile, or a profile database).
	WeightsMeasured = "measured"
	// WeightsPredicted synthesizes weights from static features
	// (PredictProfile): zero profiling runs.
	WeightsPredicted = "predicted"
	// WeightsHybrid keeps a profile database's weights at sites that
	// resolve exactly and predicts the rest (HybridProfileFromDB).
	WeightsHybrid = "hybrid"
)

// ParseProfileMode splits a -profile-mode value along its two axes: the
// interpreter instrumentation mode for Options.ProfileMode, and the
// weight source. The instrumentation modes full, minimal, and sampled
// select measured weights; the empty default and measured both mean
// full; predicted and hybrid leave any run made on their behalf fully
// instrumented. Every tool parses the flag here, so all of them accept
// and reject the same values.
func ParseProfileMode(v string) (mode, weights string, err error) {
	switch v {
	case interp.ProfileMinimal, interp.ProfileSampled:
		return v, WeightsMeasured, nil
	case "", interp.ProfileFull, WeightsMeasured:
		return interp.ProfileFull, WeightsMeasured, nil
	case WeightsPredicted, WeightsHybrid:
		return interp.ProfileFull, v, nil
	}
	return "", "", fmt.Errorf("unknown profile mode %q (want full, minimal, sampled, measured, predicted, or hybrid)", v)
}

// Program is a compiled MiniC translation unit plus its pristine original,
// kept for before/after comparisons, and the Options its later stages
// run under.
type Program struct {
	// Module is the working IL module; Inline rewrites it in place.
	Module *ir.Module
	// Original is the module as compiled (after the paper's pre-inline
	// constant folding and jump optimization), untouched by Inline.
	Original *ir.Module

	Options

	name string
}

// machineOpts assembles the interpreter options every execution path
// shares, so engine and profiling settings cannot diverge between
// Run/Profile and between workers.
func (p *Program) machineOpts(stackSize int) interp.Options {
	return interp.Options{
		StackSize:   stackSize,
		Obs:         p.Obs,
		Engine:      p.Engine,
		ProfileMode: p.ProfileMode,
		SampleRate:  p.SampleRate,
	}
}

// Compile parses, checks, lowers, and pre-optimizes a MiniC source file
// under the default Options. As in the paper, constant folding and jump
// optimization run before inline expansion.
func Compile(name, src string) (*Program, error) { return CompileWith(Options{}, name, src) }

// CompileWith is Compile under o: lex/parse, semantic checking, IL
// generation, and pre-inline optimization each run under their own span
// in o.Obs, and the returned Program carries o so every later pipeline
// stage runs under it too.
func CompileWith(o Options, name, src string) (*Program, error) {
	mod, err := frontEnd(name, src, o.Obs, o.Parallelism)
	if err != nil {
		return nil, err
	}
	return &Program{Module: mod, Original: mod.Clone(), Options: o, name: name}, nil
}

// frontEnd runs one translation unit through parse, sema, irgen, and the
// pre-inline passes on up to par workers, then verifies the module.
func frontEnd(name, src string, reg *obs.Registry, par int) (*ir.Module, error) {
	stop := reg.StartSpan("frontend.parse")
	file, err := parser.Parse(name, src)
	stop()
	if err != nil {
		return nil, fmt.Errorf("parse %s: %w", name, err)
	}
	stop = reg.StartSpan("frontend.sema")
	prog, err := sema.Check(file)
	stop()
	if err != nil {
		return nil, fmt.Errorf("check %s: %w", name, err)
	}
	stop = reg.StartSpan("frontend.irgen")
	mod, err := irgen.Generate(prog)
	stop()
	if err != nil {
		return nil, fmt.Errorf("lower %s: %w", name, err)
	}
	optimize(reg, "preinline", mod, par, opt.PreInlineParallel)
	if err := mod.Verify(); err != nil {
		return nil, fmt.Errorf("pre-inline optimization broke %s: %w", name, err)
	}
	return mod, nil
}

// optimize runs one opt pipeline over mod on up to par workers, under
// the "opt.<pass>" span, and counts the functions it processed.
func optimize(reg *obs.Registry, pass string, mod *ir.Module, par int, run func(*ir.Module, int)) {
	defer reg.StartSpan("opt." + pass)()
	run(mod, par)
	reg.Counter("opt_functions_total",
		"Functions processed by the optimizer, by pass.",
		"pass", pass).Add(int64(len(mod.Funcs)))
}

// Unit is one separately compiled translation unit, ready for linking.
// Cross-unit references appear as extern declarations in each unit;
// static functions and variables stay unit-private.
type Unit struct {
	Name   string
	Module *ir.Module
}

// CompileUnit compiles one translation unit for later linking. Unlike a
// whole program, a unit need not define main and may reference functions
// and variables defined elsewhere via extern declarations.
func CompileUnit(name, src string) (*Unit, error) {
	mod, err := frontEnd(name, src, nil, 0)
	if err != nil {
		return nil, err
	}
	return &Unit{Name: name, Module: mod}, nil
}

// UnitSource names one translation unit's source text for CompileUnits.
type UnitSource struct {
	Name string
	Src  string
}

// CompileUnits compiles several translation units concurrently: each
// unit's lex/parse/sema/irgen/pre-optimize pipeline runs in its own
// worker, bounded by par (0 = all cores, 1 = serial). Units come back in
// input order and the diagnostics of every failing unit are merged in
// input order, so any worker count produces identical results and
// identical error text.
func CompileUnits(par int, sources ...UnitSource) ([]*Unit, error) {
	units := make([]*Unit, len(sources))
	errs := make([]error, len(sources))
	pool.Run(len(sources), par, func(_, i int) {
		units[i], errs[i] = CompileUnit(sources[i].Name, sources[i].Src)
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return units, nil
}

// CompileAndLink is the parallel multi-unit front end: it compiles the
// units concurrently on up to o.Parallelism workers and links them into
// a runnable Program, producing the same module as compiling each unit
// serially and calling LinkUnits. Unit compilation runs under a
// "frontend" span in o.Obs and linking under a "link" span, and the
// returned Program carries o.
func CompileAndLink(name string, o Options, sources ...UnitSource) (*Program, error) {
	stop := o.Obs.StartSpan("frontend")
	units, err := CompileUnits(o.Parallelism, sources...)
	stop()
	if err != nil {
		return nil, err
	}
	stop = o.Obs.StartSpan("link")
	p, err := LinkUnits(name, units...)
	stop()
	if err != nil {
		return nil, err
	}
	p.Options = o
	return p, nil
}

// LinkUnits merges separately compiled units into a runnable Program —
// section 2.1's link-time setting, where every function body is available
// and inline expansion "can naturally be performed without sacrificing
// separate compilation".
func LinkUnits(name string, units ...*Unit) (*Program, error) {
	mods := make([]*ir.Module, len(units))
	for i, u := range units {
		mods[i] = u.Module
	}
	linked, err := link.Link(name, mods...)
	if err != nil {
		return nil, err
	}
	return &Program{Module: linked, Original: linked.Clone(), name: name}, nil
}

// MustCompile is Compile that panics on error, for examples and tests.
func MustCompile(name, src string) *Program {
	p, err := Compile(name, src)
	if err != nil {
		panic(err)
	}
	return p
}

// Name returns the source name the program was compiled from.
func (p *Program) Name() string { return p.name }

// Run executes the working module once on the input.
func (p *Program) Run(in Input) (*RunOutput, error) {
	return p.runModule(p.Module, in)
}

// RunOriginal executes the pristine pre-inline module once.
func (p *Program) RunOriginal(in Input) (*RunOutput, error) {
	return p.runModule(p.Original, in)
}

// newEnv builds the simulated environment for one run.
func newEnv(in Input) *interp.Env {
	env := interp.NewEnv()
	for k, v := range in.Files {
		env.Files[k] = append([]byte(nil), v...)
	}
	env.Stdin = in.Stdin
	return env
}

func (p *Program) runModule(mod *ir.Module, in Input) (*RunOutput, error) {
	env := newEnv(in)
	stop := p.Obs.StartSpan("translate")
	m, err := interp.NewMachine(mod, env, p.machineOpts(in.StackSize))
	stop()
	if err != nil {
		return nil, err
	}
	st, err := m.Run()
	if err != nil {
		return nil, err
	}
	return &RunOutput{
		Stdout:   env.Stdout.String(),
		Stderr:   env.Stderr.String(),
		ExitCode: st.ExitCode,
		Files:    env.Files,
		Stats:    st,
	}, nil
}

// ProfileInputs runs the working module once per input and averages the
// statistics — the paper's "average run-time statistics over many runs of
// a program" with representative inputs. Runs execute concurrently on up
// to Parallelism workers; see that field for the determinism contract.
func (p *Program) ProfileInputs(inputs ...Input) (*Profile, error) {
	return p.profileModule(p.Module, inputs)
}

// ProfileOriginal profiles the pristine pre-inline module.
func (p *Program) ProfileOriginal(inputs ...Input) (*Profile, error) {
	return p.profileModule(p.Original, inputs)
}

// profileWorker runs a sequence of profiling inputs on one reused
// Machine and one reused Env: the module is translated once per worker
// (under a "translate" span), then each run Resets the environment and
// re-points it at the input's file set without copying — the Env API
// never mutates input file contents in place (reads share, appends copy,
// closes replace map values), so sharing is safe and the per-run
// output-buffer and file-system copies the old fresh-Env path performed
// are gone. Profiling consumes only RunStats, so nothing else is
// retained. Machine.Run restores exact initial state between runs, so a
// reused machine is bit-identical to a fresh one — which is what keeps
// profiles identical at any Parallelism even though reuse sequences
// differ by worker count.
type profileWorker struct {
	p      *Program
	mod    *ir.Module
	worker int

	m         *interp.Machine
	env       *interp.Env
	stackSize int
}

func (w *profileWorker) run(in Input) (*RunStats, error) {
	if w.env == nil {
		w.env = interp.NewEnv()
	} else {
		w.env.Reset()
		clear(w.env.Files)
	}
	for k, v := range in.Files {
		w.env.Files[k] = v
	}
	w.env.Stdin = in.Stdin
	if w.m == nil || w.stackSize != in.StackSize {
		stop := w.p.Obs.StartSpanWorker("translate", w.worker)
		m, err := interp.NewMachine(w.mod, w.env, w.p.machineOpts(in.StackSize))
		stop()
		if err != nil {
			return nil, err
		}
		w.m = m
		w.stackSize = in.StackSize
	}
	return w.m.Run()
}

// profileModule fans the profiling runs out over the shared worker pool.
// Each worker translates the module once and reuses its Machine across
// runs; Profile.Add is sums-and-max, so merging in input order makes the
// result bit-identical to a serial pass regardless of worker count.
func (p *Program) profileModule(mod *ir.Module, inputs []Input) (*Profile, error) {
	reg := p.Obs
	defer reg.StartSpan("profile")()
	if len(inputs) == 0 {
		inputs = []Input{{}}
	}
	prof := profile.NewProfile()
	if p.ProfileMode == interp.ProfileSampled {
		if k := p.SampleRate; k > 1 {
			prof.SampleRate = k
		} else if k == 0 {
			prof.SampleRate = interp.DefaultSampleRate
		}
	}
	stats := make([]*RunStats, len(inputs))
	errs := make([]error, len(inputs))
	workers := make([]*profileWorker, pool.Size(p.Parallelism))
	pool.Run(len(inputs), p.Parallelism, func(w, i int) {
		if workers[w] == nil {
			workers[w] = &profileWorker{p: p, mod: mod, worker: w}
		}
		stop := reg.StartSpanWorker("profile.run", w)
		stats[i], errs[i] = workers[w].run(inputs[i])
		stop()
	})
	for i := range inputs {
		if errs[i] != nil {
			return nil, fmt.Errorf("profiling run %d: %w", i+1, errs[i])
		}
		prof.Add(stats[i])
	}
	return prof, nil
}

// CallGraph builds the weighted call graph of the working module with the
// profile's node and arc weights attached.
func (p *Program) CallGraph(prof *Profile) *Graph {
	defer p.Obs.StartSpan("callgraph")()
	return callgraph.Build(p.Module, prof)
}

// Inline runs profile-guided inline expansion over the working module in
// place and returns the expansion report. The pristine module remains in
// Original. Unless params.Parallelism is set explicitly, physical
// expansion inherits the Program's Parallelism: its dependency waves are
// scheduled over that many workers, with byte-identical results at any
// count.
func (p *Program) Inline(prof *Profile, params Params) (*Result, error) {
	if params.Parallelism == 0 {
		params.Parallelism = pool.Size(p.Parallelism)
	}
	if params.Obs == nil {
		params.Obs = p.Obs
	}
	stop := params.Obs.StartSpan("callgraph")
	g := callgraph.Build(p.Module, prof)
	stop()
	return inline.Expand(p.Module, g, prof, params)
}

// Optimize applies the post-inline cleanup passes (copy propagation,
// constant folding, dead code elimination, jump optimization) to the
// working module — the "comprehensive code optimizations after inline
// expansion" the paper deferred. The per-function pass pipelines run
// concurrently on up to Parallelism workers; they are function-local, so
// the resulting module is identical at any worker count.
func (p *Program) Optimize() error {
	optimize(p.Obs, "postinline", p.Module, p.Parallelism, opt.PostInlineParallel)
	return p.Module.Verify()
}

// EliminateTailCalls rewrites self tail calls in the working module into
// jumps — the "standard way of removing tail recursion" section 2.2 of
// the paper points to as the complement of not inlining simple recursion.
// It returns the number of rewritten call sites.
func (p *Program) EliminateTailCalls() (int, error) {
	n := opt.TailCallEliminate(p.Module)
	if err := p.Module.Verify(); err != nil {
		return n, err
	}
	return n, nil
}

// Classify categorizes every static call site of the working module as
// external / pointer / unsafe / safe under the paper's rules.
func (p *Program) Classify(prof *Profile, params callgraph.ClassifyParams) callgraph.ClassCounts {
	g := callgraph.Build(p.Module, prof)
	return callgraph.Count(g.Classify(params))
}

// ICacheConfig re-exports the instruction-cache geometry.
type ICacheConfig = icache.Config

// ICacheStats re-exports instruction-cache hit/miss statistics.
type ICacheStats = icache.Stats

// DefaultICacheConfig returns the 2 KiB direct-mapped configuration of
// the paper's companion instruction-cache study.
func DefaultICacheConfig() ICacheConfig { return icache.DefaultConfig() }

// SimulateICache executes the working module once on the input while
// simulating an instruction cache over the dynamic instruction stream,
// reproducing the paper's conclusion-section observation that inline
// expansion reduces mapping conflicts despite larger static code.
func (p *Program) SimulateICache(in Input, cfg ICacheConfig) (ICacheStats, error) {
	return p.simulateICache(p.Module, in, cfg)
}

// SimulateICacheOriginal simulates the cache over the pristine module.
func (p *Program) SimulateICacheOriginal(in Input, cfg ICacheConfig) (ICacheStats, error) {
	return p.simulateICache(p.Original, in, cfg)
}

func (p *Program) simulateICache(mod *ir.Module, in Input, cfg ICacheConfig) (ICacheStats, error) {
	defer p.Obs.StartSpan("icache.simulate")()
	cache, err := icache.New(cfg)
	if err != nil {
		return ICacheStats{}, err
	}
	tracer := &icache.Tracer{Cache: cache, Layout: icache.NewLayout(mod)}
	env := newEnv(in)
	m, err := interp.NewMachine(mod, env, interp.Options{StackSize: in.StackSize, Trace: tracer.Step, Engine: p.Engine})
	if err != nil {
		return ICacheStats{}, err
	}
	if _, err := m.Run(); err != nil {
		return ICacheStats{}, err
	}
	cache.Stats.RecordTo(p.Obs, cfg)
	return cache.Stats, nil
}
