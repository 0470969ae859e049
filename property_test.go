package inlinec

import (
	"fmt"
	"testing"

	"inlinec/internal/inline"
	"inlinec/internal/testgen"
)

// runChecked compiles and runs a generated program with an instruction
// budget, failing the test on any error.
func runChecked(t *testing.T, p *Program, original bool) string {
	t.Helper()
	var out *RunOutput
	var err error
	if original {
		out, err = p.RunOriginal(Input{})
	} else {
		out, err = p.Run(Input{})
	}
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return out.Stdout
}

// TestPropertyInlinePreservesSemantics is the repo's central property
// test: for many random programs and several expander configurations,
// inline expansion must not change observable behaviour.
func TestPropertyInlinePreservesSemantics(t *testing.T) {
	if testing.Short() {
		t.Skip("property test")
	}
	configs := []Params{
		DefaultParams(),
		{WeightThreshold: 1, SizeLimitFactor: 4.0},
		{WeightThreshold: 50, SizeLimitFactor: 1.1},
		{Heuristic: inline.HeuristicLeaf, SizeLimitFactor: 3.0},
		{Heuristic: inline.HeuristicSmall, SmallCalleeLimit: 40, SizeLimitFactor: 3.0},
		{NoLinearOrder: true, SizeLimitFactor: 2.0},
		{WeightThreshold: 1, SizeLimitFactor: 3.0, MaxCalleeSize: 25,
			PartialInline: true, DevirtThreshold: 0.5},
		{WeightThreshold: 1, SizeLimitFactor: 4.0, MaxCalleeSize: 30,
			PartialInline: true},
	}
	shapes := []testgen.Options{
		{},
		{Funcs: 3, MaxStmts: 10, MaxDepth: 4},
		{Funcs: 10, Recursion: true},
		{Funcs: 5, Pointers: true, Recursion: true},
		{Funcs: 6, FuncPtrs: true},
		{Funcs: 4, FuncPtrs: true, Extern: true, Pointers: true},
		{Funcs: 6, HotColdBodies: true, DominantFuncPtr: true},
		{Funcs: 8, HotColdBodies: true, FuncPtrs: true, Extern: true},
	}
	for seed := int64(1); seed <= 25; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			shape := shapes[int(seed)%len(shapes)]
			src := testgen.Generate(seed, shape)
			cfg := configs[int(seed)%len(configs)]

			p, err := Compile(fmt.Sprintf("gen%d.c", seed), src)
			if err != nil {
				t.Fatalf("compile generated program: %v\n%s", err, src)
			}
			want := runChecked(t, p, true)
			prof, err := p.ProfileInputs(Input{})
			if err != nil {
				t.Fatalf("profile: %v", err)
			}
			res, err := p.Inline(prof, cfg)
			if err != nil {
				t.Fatalf("inline (%+v): %v", cfg, err)
			}
			got := runChecked(t, p, false)
			if got != want {
				t.Fatalf("inlining changed output (cfg %+v)\nwant %q\ngot  %q\nexpanded: %v\nsource:\n%s",
					cfg, want, got, res.Expanded, src)
			}
			// Post-inline optimization must also preserve behaviour.
			if err := p.Optimize(); err != nil {
				t.Fatalf("optimize: %v", err)
			}
			if got2 := runChecked(t, p, false); got2 != want {
				t.Fatalf("post-inline optimization changed output\nwant %q\ngot %q\nsource:\n%s", want, got2, src)
			}
		})
	}
}

// TestPropertySizeLimitRespected checks that for random programs, the
// final code size never exceeds the configured cap (small additive slack:
// each splice emits a continuation label that does not count and the
// estimate is made before argument stores).
func TestPropertySizeLimitRespected(t *testing.T) {
	for seed := int64(100); seed < 112; seed++ {
		src := testgen.Generate(seed, testgen.Options{Funcs: 8})
		p, err := Compile("gen.c", src)
		if err != nil {
			t.Fatalf("seed %d: compile: %v", seed, err)
		}
		prof, err := p.ProfileInputs(Input{})
		if err != nil {
			t.Fatalf("seed %d: profile: %v", seed, err)
		}
		params := DefaultParams()
		params.WeightThreshold = 1
		params.SizeLimitFactor = 1.3
		res, err := p.Inline(prof, params)
		if err != nil {
			t.Fatalf("seed %d: inline: %v", seed, err)
		}
		// The selection estimate excludes the per-argument stores the
		// splice adds (2 instructions per parameter), so allow that slack.
		slack := 8 * len(res.Expanded)
		limit := int(1.3*float64(res.OriginalSize)) + slack
		if res.FinalSize > limit {
			t.Errorf("seed %d: size %d -> %d exceeds cap %d (expanded %d)",
				seed, res.OriginalSize, res.FinalSize, limit, len(res.Expanded))
		}
	}
}

// TestPropertyExpansionCountMatchesDecisions verifies the linearization
// guarantee: with the linear order active, physical expansions == accepted
// arcs (each site spliced exactly once).
func TestPropertyExpansionCountMatchesDecisions(t *testing.T) {
	for seed := int64(200); seed < 215; seed++ {
		src := testgen.Generate(seed, testgen.Options{Funcs: 7, Recursion: true})
		p, err := Compile("gen.c", src)
		if err != nil {
			t.Fatalf("seed %d: compile: %v", seed, err)
		}
		prof, err := p.ProfileInputs(Input{})
		if err != nil {
			t.Fatalf("seed %d: profile: %v", seed, err)
		}
		params := DefaultParams()
		params.WeightThreshold = 1
		params.SizeLimitFactor = 2.5
		res, err := p.Inline(prof, params)
		if err != nil {
			t.Fatalf("seed %d: inline: %v", seed, err)
		}
		if res.NumExpansions != len(res.Expanded) {
			t.Errorf("seed %d: %d physical expansions for %d accepted arcs",
				seed, res.NumExpansions, len(res.Expanded))
		}
	}
}
