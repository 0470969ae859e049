package interp_test

import (
	"reflect"
	"sort"
	"testing"

	"inlinec"
	"inlinec/internal/bench"
	"inlinec/internal/interp"
	"inlinec/internal/ir"
)

// TestOnDemandMatchesEager checks on every suite program, as compiled
// and after profile-guided inlining, that translating on first call
// emits exactly what translating everything at once does: runs over
// two inputs translate exactly the functions they enter, each into the
// bytecode a machine translating every function in module order emits,
// and translating in reverse module order changes no function.
func TestOnDemandMatchesEager(t *testing.T) {
	for _, name := range bench.SortedNames() {
		bm := bench.Get(name)
		inputs := bm.Inputs[:min(2, len(bm.Inputs))]
		t.Run(name, func(t *testing.T) {
			p, err := inlinec.Compile(name+".c", bm.Source)
			if err != nil {
				t.Fatal(err)
			}
			checkOnDemand(t, "as compiled", p.Module, inputs)
			prof, err := p.ProfileInputs(inputs...)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := p.Inline(prof, inlinec.DefaultParams()); err != nil {
				t.Fatal(err)
			}
			checkOnDemand(t, "inlined", p.Module, inputs)
		})
	}
}

func checkOnDemand(t *testing.T, stage string, mod *ir.Module, inputs []inlinec.Input) {
	t.Helper()
	machine := func() *interp.Machine {
		m, err := interp.NewMachine(mod, interp.NewEnv(), interp.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	lazy := machine()
	entered := map[string]bool{}
	for _, in := range inputs {
		env := interp.NewEnv()
		env.Stdin = in.Stdin
		for k, v := range in.Files {
			env.Files[k] = v
		}
		lazy.SetEnv(env)
		st, err := lazy.Run()
		if err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		for _, f := range mod.Funcs {
			if st.FuncCounts[f.Name] > 0 {
				entered[f.Name] = true
			}
		}
	}
	onDemand := lazy.Translated()
	eager, reversed := machine(), machine()
	eager.TranslateAll(false)
	reversed.TranslateAll(true)
	inOrder, inReverse := eager.Translated(), reversed.Translated()

	var got, want []string
	for i, f := range mod.Funcs {
		if entered[f.Name] {
			want = append(want, f.Name)
		}
		if onDemand[i] != "" {
			got = append(got, f.Name)
			if onDemand[i] != inOrder[i] {
				t.Errorf("%s: %s translated on demand:\n%s\nall at once:\n%s", stage, f.Name, onDemand[i], inOrder[i])
			}
		}
		if inReverse[i] != inOrder[i] {
			t.Errorf("%s: %s translated in reverse module order:\n%s\nin module order:\n%s", stage, f.Name, inReverse[i], inOrder[i])
		}
	}
	sort.Strings(got)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: translated %v, want the entered functions %v", stage, got, want)
	}
}
