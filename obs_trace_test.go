package inlinec

import (
	"bytes"
	"testing"

	"inlinec/internal/obs"
	"inlinec/internal/testgen"
)

// traceArtifacts compiles src, profiles one run, inlines at the given
// worker count, and returns the three byte streams the determinism
// contract covers: the JSONL decision trace, the -explain-inline report,
// and the expanded module.
func traceArtifacts(t *testing.T, src string, par int) (jsonl []byte, report, module string) {
	t.Helper()
	p, err := Compile("d.c", src)
	if err != nil {
		t.Fatal(err)
	}
	p.Parallelism = par
	prof, err := p.ProfileInputs(Input{}, Input{Stdin: []byte("7\n")})
	if err != nil {
		t.Fatal(err)
	}
	params := DefaultParams()
	params.WeightThreshold = 1
	params.SizeLimitFactor = 2.0
	res, err := p.Inline(prof, params)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := obs.WriteInlineTraceJSONL(&buf, res.Trace); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), obs.FormatInlineReport(res.Order, res.Trace), p.Module.String()
}

// TestInlineTraceDeterministic: the decision trace, the explain report,
// and the expanded module are byte-identical at any Parallelism, across
// program shapes that exercise the tricky arcs (recursion, function
// pointers, extern summaries).
func TestInlineTraceDeterministic(t *testing.T) {
	shapes := []struct {
		name string
		opts testgen.Options
	}{
		{"plain", testgen.Options{Funcs: 9}},
		{"recursion", testgen.Options{Funcs: 8, Recursion: true}},
		{"funcptrs_extern", testgen.Options{Funcs: 8, FuncPtrs: true, Extern: true, Recursion: true}},
		{"pointers", testgen.Options{Funcs: 10, Pointers: true, MaxDepth: 3}},
	}
	for _, sh := range shapes {
		sh := sh
		t.Run(sh.name, func(t *testing.T) {
			src := testgen.Generate(1234, sh.opts)
			refJSONL, refReport, refModule := traceArtifacts(t, src, 1)
			if len(refJSONL) == 0 {
				t.Fatal("empty trace — shape produced no arcs to decide")
			}
			for _, par := range []int{2, 8} {
				jsonl, report, module := traceArtifacts(t, src, par)
				if !bytes.Equal(jsonl, refJSONL) {
					t.Errorf("JSONL trace differs between Parallelism 1 and %d", par)
				}
				if report != refReport {
					t.Errorf("explain report differs between Parallelism 1 and %d", par)
				}
				if module != refModule {
					t.Errorf("expanded module differs between Parallelism 1 and %d", par)
				}
			}
		})
	}
}

// TestInlineTraceRoundTrip: the JSONL writer and reader are inverses, so
// tooling downstream of -inline-trace sees exactly what the expander
// decided.
func TestInlineTraceRoundTrip(t *testing.T) {
	src := testgen.Generate(99, testgen.Options{Funcs: 9, Recursion: true})
	jsonl, _, _ := traceArtifacts(t, src, 1)
	events, err := obs.ReadInlineTraceJSONL(bytes.NewReader(jsonl))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := obs.WriteInlineTraceJSONL(&buf, events); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), jsonl) {
		t.Error("write -> read -> write is not the identity")
	}
	for i, ev := range events {
		if ev.Outcome != obs.OutcomeExpanded && ev.Reason == obs.ReasonNone {
			t.Errorf("event %d: non-expanded arc with empty reason: %+v", i, ev)
		}
		if ev.Outcome == obs.OutcomeExpanded && ev.Reason != obs.ReasonNone {
			t.Errorf("event %d: expanded arc carries a rejection reason %q", i, ev.Reason)
		}
	}
}

// TestObsDoesNotPerturbCompilation: attaching a registry is observation
// only — the compiled (or separately compiled and linked) and expanded
// module is byte-identical with and without one, and the registry sees
// every stage of the pipeline.
func TestObsDoesNotPerturbCompilation(t *testing.T) {
	src := testgen.Generate(5, testgen.Options{Funcs: 9, Pointers: true})
	cases := []struct {
		name    string
		compile func(Options) (*Program, error)
		phases  []string
	}{
		{
			name:    "single",
			compile: func(o Options) (*Program, error) { return CompileWith(o, "d.c", src) },
			phases:  []string{"frontend.parse", "opt.preinline", "profile", "inline.select", "opt.postinline"},
		},
		{
			name: "linked",
			compile: func(o Options) (*Program, error) {
				return CompileAndLink("prog", o, UnitSource{"lib.c", libSrc}, UnitSource{"app.c", appSrc})
			},
			phases: []string{"frontend", "link", "profile", "inline.select", "opt.postinline"},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			build := func(reg *obs.Registry) string {
				p, err := c.compile(Options{Obs: reg})
				if err != nil {
					t.Fatal(err)
				}
				prof, err := p.ProfileInputs(Input{})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := p.Inline(prof, DefaultParams()); err != nil {
					t.Fatal(err)
				}
				if err := p.Optimize(); err != nil {
					t.Fatal(err)
				}
				return p.Module.String()
			}
			bare := build(nil)
			reg := obs.NewRegistry()
			observed := build(reg)
			if bare != observed {
				t.Error("module differs with a registry attached")
			}
			// And the registry actually saw the pipeline.
			phases := reg.PhaseSeconds()
			for _, want := range c.phases {
				if _, ok := phases[want]; !ok {
					t.Errorf("phase %q missing from registry (have %v)", want, phases)
				}
			}
		})
	}
}

// predictedArtifacts mirrors traceArtifacts with the profile synthesized
// by the predictor instead of measured — zero interpreter runs.
func predictedArtifacts(t *testing.T, src, engine string, par int) (jsonl []byte, report, module string) {
	t.Helper()
	p, err := Compile("d.c", src)
	if err != nil {
		t.Fatal(err)
	}
	p.Parallelism = par
	p.Engine = engine
	prof := p.PredictProfile()
	params := DefaultParams()
	params.WeightThreshold = 0.25
	params.SizeLimitFactor = 2.0
	res, err := p.Inline(prof, params)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := obs.WriteInlineTraceJSONL(&buf, res.Trace); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), obs.FormatInlineReport(res.Order, res.Trace), p.Module.String()
}

// TestPredictedTraceDeterministic: the determinism contract extends to
// profile-free compilation — synthesized weights, the decision trace,
// and the expanded module are byte-identical at any Parallelism and on
// either interpreter engine (the engine never even runs, so it must not
// be able to matter).
func TestPredictedTraceDeterministic(t *testing.T) {
	shapes := []struct {
		name string
		opts testgen.Options
	}{
		{"plain", testgen.Options{Funcs: 9}},
		{"recursion", testgen.Options{Funcs: 8, Recursion: true}},
		{"funcptrs_extern", testgen.Options{Funcs: 8, FuncPtrs: true, Extern: true, Recursion: true}},
		{"pointers", testgen.Options{Funcs: 10, Pointers: true, MaxDepth: 3}},
		{"dominant_ptr", testgen.Options{Funcs: 8, DominantFuncPtr: true}},
	}
	for _, sh := range shapes {
		sh := sh
		t.Run(sh.name, func(t *testing.T) {
			src := testgen.Generate(1234, sh.opts)
			refJSONL, refReport, refModule := predictedArtifacts(t, src, "", 1)
			if len(refJSONL) == 0 {
				t.Fatal("empty trace — shape produced no arcs to decide")
			}
			for _, engine := range []string{"", "switch"} {
				for _, par := range []int{1, 2, 8} {
					if engine == "" && par == 1 {
						continue
					}
					jsonl, report, module := predictedArtifacts(t, src, engine, par)
					if !bytes.Equal(jsonl, refJSONL) {
						t.Errorf("engine %q parallelism %d: JSONL trace differs from the reference", engine, par)
					}
					if report != refReport {
						t.Errorf("engine %q parallelism %d: explain report differs from the reference", engine, par)
					}
					if module != refModule {
						t.Errorf("engine %q parallelism %d: expanded module differs from the reference", engine, par)
					}
				}
			}
		})
	}
}
