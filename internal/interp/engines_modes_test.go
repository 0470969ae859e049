package interp

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"inlinec/internal/ir"
	"inlinec/internal/irgen"
	"inlinec/internal/parser"
	"inlinec/internal/sema"
	"inlinec/internal/testgen"
)

// dispatchSrc exercises every counter class in one program: direct
// calls, an extern, and a pointer site with a skewed target split — the
// shape whose per-target histograms must stay exact in every mode.
const dispatchSrc = `
extern int printf(char *fmt, ...);
int twice(int x) { return x + x; }
int thrice(int x) { return x * 3; }
int pick(int i) {
    int (*fp)(int);
    if ((i & 3) != 0) fp = twice; else fp = thrice;
    return fp(i);
}
int main() {
    int i; int s;
    s = 0;
    for (i = 0; i < 64; i++) s += pick(i) & 0xffff;
    printf("%d\n", s);
    return 0;
}
`

// runWith executes dispatchSrc under one engine/mode pair on a fresh
// machine and returns the observable results.
func runWith(t *testing.T, engine, mode string, rate int) (string, *RunStatsView) {
	t.Helper()
	f, err := parser.Parse("t.c", dispatchSrc)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog, err := sema.Check(f)
	if err != nil {
		t.Fatalf("sema: %v", err)
	}
	mod, err := irgen.Generate(prog)
	if err != nil {
		t.Fatalf("irgen: %v", err)
	}
	m, err := NewMachine(mod, NewEnv(), Options{Engine: engine, ProfileMode: mode, SampleRate: rate})
	if err != nil {
		t.Fatalf("machine(%s,%s): %v", engine, mode, err)
	}
	st, err := m.Run()
	if err != nil {
		t.Fatalf("run(%s,%s): %v", engine, mode, err)
	}
	return m.Env.Stdout.String(), &RunStatsView{
		SiteCounts: st.SiteCounts,
		FuncCounts: st.FuncCounts,
		PtrTargets: st.PtrTargets,
		Calls:      st.Calls,
		PtrCalls:   st.PtrCalls,
	}
}

// RunStatsView is the cross-engine comparison slice of RunStats.
type RunStatsView struct {
	SiteCounts map[int]int64
	FuncCounts map[string]int64
	PtrTargets map[int]map[string]int64
	Calls      int64
	PtrCalls   int64
}

// TestEnginesAgreeAcrossProfileModes pins the package-level contract the
// root differential suite relies on: for every profile mode, the switch
// oracle and the bytecode engine produce the same output and the same
// counters, and the exact modes agree with each other bit for bit —
// including the per-target pointer histograms, which stay exact even
// under sampling.
func TestEnginesAgreeAcrossProfileModes(t *testing.T) {
	refOut, refSt := runWith(t, EngineBytecode, ProfileFull, 0)
	for _, mode := range []string{ProfileFull, ProfileMinimal, ProfileSampled} {
		for _, engine := range []string{EngineBytecode, EngineSwitch} {
			out, st := runWith(t, engine, mode, 4)
			if out != refOut {
				t.Errorf("%s/%s output %q, want %q", engine, mode, out, refOut)
			}
			if st.Calls != refSt.Calls || st.PtrCalls != refSt.PtrCalls {
				t.Errorf("%s/%s calls=%d ptr=%d, want %d/%d",
					engine, mode, st.Calls, st.PtrCalls, refSt.Calls, refSt.PtrCalls)
			}
			if !reflect.DeepEqual(st.PtrTargets, refSt.PtrTargets) {
				t.Errorf("%s/%s ptr targets %v, want %v (must be exact in every mode)",
					engine, mode, st.PtrTargets, refSt.PtrTargets)
			}
			if mode != ProfileSampled {
				if !reflect.DeepEqual(st.SiteCounts, refSt.SiteCounts) {
					t.Errorf("%s/%s site counts %v, want %v", engine, mode, st.SiteCounts, refSt.SiteCounts)
				}
				if !reflect.DeepEqual(st.FuncCounts, refSt.FuncCounts) {
					t.Errorf("%s/%s func counts %v, want %v", engine, mode, st.FuncCounts, refSt.FuncCounts)
				}
			}
		}
	}
}

func TestBadProfileOptions(t *testing.T) {
	f, err := parser.Parse("t.c", dispatchSrc)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	_, mod := mustLower(t, f)
	if _, err := NewMachine(mod, NewEnv(), Options{ProfileMode: "bogus"}); err == nil {
		t.Error("bogus profile mode accepted")
	}
	if _, err := NewMachine(mod, NewEnv(), Options{SampleRate: -1}); err == nil {
		t.Error("negative sample rate accepted")
	}
	m, err := NewMachine(mod, NewEnv(), Options{Engine: EngineSwitch})
	if err != nil {
		t.Fatal(err)
	}
	if m.Engine() != EngineSwitch {
		t.Errorf("Engine() = %q, want %q", m.Engine(), EngineSwitch)
	}
}

// TestMinimalModeLoadAllocs pins what minimal mode adds to NewMachine,
// counted in allocations rather than time: the list of direct sites and
// their callees, a fixed few allocations whatever the module's size.
func TestMinimalModeLoadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	fp, err := os.ReadFile(filepath.Join("..", "bench", "progs", "funcptrs.c"))
	if err != nil {
		t.Fatal(err)
	}
	mods := []struct {
		name string
		mod  *ir.Module
	}{
		{"funcptrs", lowerOpt(t, string(fp))},
		{"testgen150", lowerOpt(t, testgen.Generate(1, testgen.Options{Funcs: 150}))},
	}
	env := NewEnv()
	var gaps []float64
	for _, c := range mods {
		allocs := func(mode string) float64 {
			return testing.AllocsPerRun(20, func() {
				if _, err := NewMachine(c.mod, env, Options{ProfileMode: mode}); err != nil {
					t.Fatal(err)
				}
			})
		}
		full, minimal := allocs(ProfileFull), allocs(ProfileMinimal)
		t.Logf("%s: %d functions, NewMachine makes %.0f allocations in full mode, %.0f in minimal",
			c.name, len(c.mod.Funcs), full, minimal)
		if minimal-full > 2 {
			t.Errorf("%s: minimal mode makes %.0f more allocations than full, want at most 2", c.name, minimal-full)
		}
		gaps = append(gaps, minimal-full)
	}
	if gaps[1] > gaps[0] {
		t.Errorf("minimal mode's extra allocations grow with module size: %.0f on %s, %.0f on %s",
			gaps[0], mods[0].name, gaps[1], mods[1].name)
	}
}
