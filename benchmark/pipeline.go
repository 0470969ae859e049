package main

import (
	"fmt"
	"runtime"

	"inlinec"
	"inlinec/internal/ast"
	"inlinec/internal/callgraph"
	"inlinec/internal/inline"
	"inlinec/internal/interp"
	"inlinec/internal/ir"
	"inlinec/internal/irgen"
	"inlinec/internal/opt"
	"inlinec/internal/parser"
	"inlinec/internal/predict"
	"inlinec/internal/profdb"
	"inlinec/internal/profile"
	"inlinec/internal/sema"
)

// parallelism is Program.Parallelism for every build and run, and
// GOMAXPROCS. The benchmark runs on one worker: on the 2-vCPU VM it was
// calibrated on, fanning out over the second vCPU made every timing
// noisier from run to run (interleaved runs of one seed: pipeline_s
// quartiles 15% apart with two workers, 6% with one).
const parallelism = 1

// weightLayers are the span names of the weight-acquisition layer; which
// of them run depends on the workload's weight source.
var weightLayers = []string{"interp.profile", "predict", "profdb.ingest", "profdb.merge", "profdb.resolve"}

// built is one job's build product.
type built struct {
	prog    *inlinec.Program
	res     *inlinec.Result
	weights *inlinec.Profile
	report  *inlinec.ProfDBReport // hybrid weights only
	// Traced builds only: IL size straight out of irgen, and call-graph arcs.
	staticIL, arcs int
}

func (w *workload) configure(p *inlinec.Program) {
	p.Parallelism = parallelism
	p.Engine = interp.EngineBytecode
	p.ProfileMode = w.mode
}

// build is what a user of the library runs: the facade calls from source
// to optimized, inlined module.
func (w *workload) build(j *job) (*built, error) {
	p, err := inlinec.Compile(j.name+".c", j.src)
	if err != nil {
		return nil, err
	}
	w.configure(p)
	b := &built{prog: p}
	switch w.weights {
	case measured:
		if b.weights, err = p.ProfileInputs(j.train...); err != nil {
			return nil, err
		}
	case predicted:
		b.weights = p.PredictProfile()
	case hybrid:
		db := inlinec.NewProfDB(j.name + ".c")
		for _, rec := range j.snaps {
			if err := db.Ingest(rec); err != nil {
				return nil, err
			}
		}
		b.weights, b.report = p.HybridProfileFromDB(db, inlinec.DefaultProfDBMergeParams())
	}
	if b.res, err = p.Inline(b.weights, j.params); err != nil {
		return nil, err
	}
	return b, p.Optimize()
}

// buildTraced does what build does, one layer function at a time, with a
// span around each call. It must stay call-for-call equivalent to the
// facade: the traced pass checks that both produce identical modules.
func (w *workload) buildTraced(t *tracer, ji int, j *job) (*built, error) {
	name := j.name + ".c"
	step := func(layer string, f func() error) error {
		id := t.begin(layer, ji)
		err := f()
		t.end(id, err)
		if err != nil {
			return fmt.Errorf("%s %s: %w", layer, name, err)
		}
		return nil
	}
	var (
		file *ast.File
		prog *sema.Program
		mod  *ir.Module
		orig *ir.Module
	)
	if err := step("parser", func() (err error) { file, err = parser.Parse(name, j.src); return err }); err != nil {
		return nil, err
	}
	if err := step("sema", func() (err error) { prog, err = sema.Check(file); return err }); err != nil {
		return nil, err
	}
	if err := step("irgen", func() (err error) { mod, err = irgen.Generate(prog); return err }); err != nil {
		return nil, err
	}
	b := &built{staticIL: mod.TotalCodeSize()}
	step("opt.pre", func() error { opt.PreInlineParallel(mod, 0); return nil })
	if err := step("ir.verify", mod.Verify); err != nil {
		return nil, err
	}
	step("ir.clone", func() error { orig = mod.Clone(); return nil })
	p := &inlinec.Program{Module: mod, Original: orig}
	w.configure(p)
	b.prog = p

	switch w.weights {
	case measured:
		if err := step("interp.profile", func() (err error) { b.weights, err = p.ProfileInputs(j.train...); return err }); err != nil {
			return nil, err
		}
	case predicted:
		step("predict", func() error { b.weights = predict.Synthesize(mod, predict.DefaultModel()); return nil })
	case hybrid:
		db := profdb.NewDB(name)
		err := step("profdb.ingest", func() error {
			for _, rec := range j.snaps {
				if err := db.Ingest(rec); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		var (
			merged *profdb.Record
			ms     *profdb.MergeStats
			meas   *profile.Profile
			rs     *profdb.ResolveStats
		)
		step("profdb.merge", func() error {
			merged, ms = db.Merge(profdb.ModuleFingerprint(mod), profdb.DefaultMergeParams())
			return nil
		})
		step("profdb.resolve", func() error { meas, rs = merged.Resolve(profdb.ModuleKeys(mod)); return nil })
		step("predict", func() error {
			b.weights = predict.Hybrid(predict.Synthesize(mod, predict.DefaultModel()), meas, rs.ExactIDs)
			return nil
		})
		b.report = &profdb.Report{Merge: *ms, Resolve: *rs}
	}

	var g *callgraph.Graph
	step("callgraph", func() error { g = callgraph.Build(mod, b.weights); return nil })
	b.arcs = len(g.Arcs)
	params := j.params
	params.Parallelism = parallelism
	if err := step("inline", func() (err error) { b.res, err = inline.Expand(mod, g, b.weights, params); return err }); err != nil {
		return nil, err
	}
	step("opt.post", func() error { opt.PostInlineParallel(mod, parallelism); return nil })
	return b, step("ir.verify", mod.Verify)
}

func runOutcome(out *inlinec.RunOutput, err error) outcome {
	if err != nil {
		return outcome{err: err.Error()}
	}
	return outcome{stdout: out.Stdout, stderr: out.Stderr, exit: out.ExitCode, files: out.Files,
		il: out.Stats.IL, calls: out.Stats.Calls}
}

// runTraced does what Program.Run does with a span around loading
// (translation) and around execution, and counts the Go heap
// allocations the run makes.
func runTraced(t *tracer, ji int, p *inlinec.Program, in inlinec.Input) (outcome, uint64) {
	env := newEnv(in)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs := ms.Mallocs
	id := t.begin("interp.translate", ji)
	m, err := interp.NewMachine(p.Module, env, interp.Options{
		StackSize: in.StackSize, Engine: p.Engine, ProfileMode: p.ProfileMode, SampleRate: p.SampleRate,
	})
	t.end(id, err)
	if err != nil {
		return outcome{err: err.Error()}, 0
	}
	id = t.begin("interp.exec", ji)
	st, err := m.Run()
	t.end(id, err)
	runtime.ReadMemStats(&ms)
	if err != nil {
		return outcome{err: err.Error()}, ms.Mallocs - mallocs
	}
	return envOutcome(env, st.ExitCode, st.IL, st.Calls), ms.Mallocs - mallocs
}
