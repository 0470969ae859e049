package interp_test

import (
	"fmt"
	"testing"

	"inlinec"
	"inlinec/internal/bench"
	"inlinec/internal/interp"
	"inlinec/internal/testgen"
)

// TestChargesCoverIL checks the bytecode accounting contract (see
// interp.CheckCharges) on every function of the suite programs and of
// generated program shapes, as compiled and again after profile-guided
// inlining and post-inline cleanup, which reshape the code the
// translator analyses.
func TestChargesCoverIL(t *testing.T) {
	type prog struct {
		name   string
		src    string
		inputs []inlinec.Input
	}
	var progs []prog
	for _, name := range bench.SortedNames() {
		bm := bench.Get(name)
		progs = append(progs, prog{name, bm.Source, bm.Inputs[:min(2, len(bm.Inputs))]})
	}
	shapes := []testgen.Options{
		{},
		{Recursion: true},
		{Pointers: true},
		{FuncPtrs: true, Funcs: 8},
		{Extern: true},
		{Recursion: true, Pointers: true, FuncPtrs: true, Extern: true, Funcs: 10, MaxStmts: 8},
	}
	for i, opts := range shapes {
		for seed := int64(0); seed < 3; seed++ {
			progs = append(progs, prog{fmt.Sprintf("testgen%d-%d", i, seed),
				testgen.Generate(4000+10*int64(i)+seed, opts), []inlinec.Input{{}, {Stdin: []byte("7\n")}}})
		}
	}
	for _, pr := range progs {
		t.Run(pr.name, func(t *testing.T) {
			p, err := inlinec.Compile(pr.name+".c", pr.src)
			if err != nil {
				t.Fatal(err)
			}
			if err := interp.CheckCharges(p.Module); err != nil {
				t.Fatalf("before inlining: %v", err)
			}
			prof, err := p.ProfileInputs(pr.inputs...)
			if err != nil {
				t.Fatal(err)
			}
			params := inlinec.DefaultParams()
			params.WeightThreshold = 1
			params.SizeLimitFactor = 2.0
			if _, err := p.Inline(prof, params); err != nil {
				t.Fatal(err)
			}
			if err := interp.CheckCharges(p.Module); err != nil {
				t.Fatalf("after inlining: %v", err)
			}
			if err := p.Optimize(); err != nil {
				t.Fatal(err)
			}
			if err := interp.CheckCharges(p.Module); err != nil {
				t.Fatalf("after post-inline cleanup: %v", err)
			}
		})
	}
}
