package inline

import (
	"strings"
	"testing"

	"inlinec/internal/callgraph"
	"inlinec/internal/interp"
	"inlinec/internal/ir"
	"inlinec/internal/irgen"
	"inlinec/internal/opt"
	"inlinec/internal/parser"
	"inlinec/internal/profile"
	"inlinec/internal/sema"
)

// build compiles source and profiles it once, returning everything the
// expander needs.
func build(t *testing.T, src string) (*ir.Module, *callgraph.Graph, *profile.Profile) {
	t.Helper()
	f, err := parser.Parse("t.c", src)
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
	opt.PreInlineParallel(mod, 0)
	m, err := interp.NewMachine(mod, interp.NewEnv(), interp.Options{})
	if err != nil {
		t.Fatalf("machine: %v", err)
	}
	st, err := m.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	prof := profile.NewProfile()
	prof.Add(st)
	return mod, callgraph.Build(mod, prof), prof
}

func runModule(t *testing.T, mod *ir.Module) (string, *profile.RunStats) {
	t.Helper()
	m, err := interp.NewMachine(mod, interp.NewEnv(), interp.Options{})
	if err != nil {
		t.Fatalf("machine: %v", err)
	}
	st, err := m.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return m.Env.Stdout.String(), st
}

const chainSrc = `
extern int printf(char *fmt, ...);
int bottom(int x) { return x + 1; }
int middle(int x) { return bottom(x) * 2; }
int top(int x) { return middle(x) + bottom(x); }
int main() {
    int i; int s;
    s = 0;
    for (i = 0; i < 100; i++) s += top(i);
    printf("%d\n", s);
    return 0;
}
`

func TestLinearizationOrder(t *testing.T) {
	mod, g, prof := build(t, chainSrc)
	res, err := Expand(mod, g, prof, Params{WeightThreshold: 1, SizeLimitFactor: 4.0})
	if err != nil {
		t.Fatalf("expand: %v", err)
	}
	pos := make(map[string]int)
	for i, n := range res.Order {
		pos[n] = i
	}
	// Weights: bottom 200, middle 100, top 100, main 1. bottom must lead;
	// among the 100s, middle (height 1) precedes top (height 2); main last.
	if pos["bottom"] != 0 {
		t.Errorf("order = %v; bottom must be first", res.Order)
	}
	if !(pos["middle"] < pos["top"] && pos["top"] < pos["main"]) {
		t.Errorf("order = %v; want middle < top < main", res.Order)
	}
}

func TestMultiLevelExpansion(t *testing.T) {
	mod, g, prof := build(t, chainSrc)
	before, stBefore := runModule(t, mod)
	res, err := Expand(mod, g, prof, Params{WeightThreshold: 1, SizeLimitFactor: 6.0})
	if err != nil {
		t.Fatalf("expand: %v", err)
	}
	after, stAfter := runModule(t, mod)
	if before != after {
		t.Fatalf("output changed: %q -> %q", before, after)
	}
	// All four user arcs are hot; everything should be expanded and all
	// user calls eliminated.
	if stAfter.Calls >= stBefore.Calls {
		t.Errorf("calls %d -> %d; want decrease", stBefore.Calls, stAfter.Calls)
	}
	userCallsAfter := stAfter.Calls - stAfter.ExternCalls
	if userCallsAfter != 0 {
		t.Errorf("remaining user calls = %d, want 0 (full multi-level inlining)", userCallsAfter)
	}
	if res.NumExpansions != 4 {
		t.Errorf("expansions = %d, want 4 (one per arc, thanks to linear order)", res.NumExpansions)
	}
}

func TestPathQualifiedRenaming(t *testing.T) {
	mod, g, prof := build(t, chainSrc)
	if _, err := Expand(mod, g, prof, Params{WeightThreshold: 1, SizeLimitFactor: 6.0}); err != nil {
		t.Fatalf("expand: %v", err)
	}
	// main absorbed top (which had absorbed middle/bottom): its slots must
	// carry path-qualified names like "top.middle.bottom.x".
	mainFn := mod.Func("main")
	var sawQualified, sawDeep bool
	for _, s := range mainFn.Slots {
		if strings.Contains(s.Name, ".") {
			sawQualified = true
		}
		if strings.Count(s.Name, ".") >= 2 {
			sawDeep = true
		}
	}
	if !sawQualified || !sawDeep {
		t.Errorf("slot names lack path qualification: %+v", mainFn.Slots)
	}
}

func TestCallReturnBecomeJumps(t *testing.T) {
	mod, g, prof := build(t, chainSrc)
	if _, err := Expand(mod, g, prof, Params{WeightThreshold: 1, SizeLimitFactor: 6.0}); err != nil {
		t.Fatalf("expand: %v", err)
	}
	mainFn := mod.Func("main")
	for i := range mainFn.Code {
		if mainFn.Code[i].Op == ir.OpCall && mainFn.Code[i].Sym == "top" {
			t.Error("call to top survived expansion")
		}
		if mainFn.Code[i].Op == ir.OpRet && i < len(mainFn.Code)-2 {
			// Inlined returns must have been rewritten to jumps; only the
			// function's own returns remain (at the tail after lowering).
			// A mid-body ret would have been the callee's.
			// (The lowered main has exactly one ret from `return 0`— plus
			// the implicit one.)
			continue
		}
	}
	if err := mod.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
}

func TestRejectionReasons(t *testing.T) {
	src := `
extern int printf(char *fmt, ...);
int hot(int x) { return x + 1; }
int coldf(int x) { return x - 1; }
int selfrec(int n) { if (n <= 0) return 0; return selfrec(n - 1); }
int main() {
    int i; int s;
    s = 0;
    for (i = 0; i < 100; i++) s += hot(i);
    if (s < 0) s = coldf(s);
    s += selfrec(3);
    printf("%d\n", s);
    return 0;
}
`
	mod, g, prof := build(t, src)
	res, err := Expand(mod, g, prof, DefaultParams())
	if err != nil {
		t.Fatalf("expand: %v", err)
	}
	reasons := make(map[string]string)
	for _, d := range res.Decisions {
		if !d.Accepted {
			reasons[d.Caller+"->"+d.Callee] = d.Reason
		}
	}
	// coldf has weight 0, so linearization places it after main and the
	// arc main->coldf is not_expandable before it ever reaches the cost
	// function; either way it must not be expanded.
	for _, d := range res.Expanded {
		if d.Callee == "coldf" {
			t.Error("cold callee expanded")
		}
	}
	// selfrec->selfrec is not_expandable and never reaches Decisions;
	// main->selfrec (weight 1) is below threshold.
	if r, ok := reasons["main->selfrec"]; !ok || !strings.Contains(r, "threshold") {
		t.Errorf("main->selfrec reason = %q", r)
	}
	for _, d := range res.Expanded {
		if d.Callee == "selfrec" {
			t.Error("recursive callee expanded")
		}
	}
}

func TestBodyCacheStats(t *testing.T) {
	// Many callers of the same callee: the second and later fetches hit.
	src := `
extern int printf(char *fmt, ...);
int shared(int x) { return x * 3; }
int a(int x) { return shared(x) + 1; }
int b(int x) { return shared(x) + 2; }
int c(int x) { return shared(x) + 3; }
int main() {
    int i; int s;
    s = 0;
    for (i = 0; i < 50; i++) s += a(i) + b(i) + c(i);
    printf("%d\n", s);
    return 0;
}
`
	mod, g, prof := build(t, src)
	res, err := Expand(mod, g, prof, Params{WeightThreshold: 1, SizeLimitFactor: 8.0})
	if err != nil {
		t.Fatalf("expand: %v", err)
	}
	if res.Cache.Lookups == 0 {
		t.Fatal("no cache lookups recorded")
	}
	if res.Cache.Hits == 0 {
		t.Errorf("expected cache hits when one callee is absorbed repeatedly: %+v", res.Cache)
	}
	if res.Cache.Hits+res.Cache.Misses != res.Cache.Lookups {
		t.Errorf("inconsistent cache stats: %+v", res.Cache)
	}
}

func TestTinyCacheEvicts(t *testing.T) {
	mod, g, prof := build(t, chainSrc)
	res, err := Expand(mod, g, prof, Params{WeightThreshold: 1, SizeLimitFactor: 6.0, CacheCapacity: 1})
	if err != nil {
		t.Fatalf("expand: %v", err)
	}
	if res.Cache.Evictions == 0 && res.Cache.Misses > 1 {
		t.Errorf("capacity-1 cache with %d misses must evict: %+v", res.Cache.Misses, res.Cache)
	}
}

func TestHeuristicLeaf(t *testing.T) {
	mod, g, prof := build(t, chainSrc)
	res, err := Expand(mod, g, prof, Params{Heuristic: HeuristicLeaf, SizeLimitFactor: 6.0})
	if err != nil {
		t.Fatalf("expand: %v", err)
	}
	for _, d := range res.Expanded {
		if d.Callee != "bottom" {
			t.Errorf("leaf heuristic expanded non-leaf %s", d.Callee)
		}
	}
	if len(res.Expanded) == 0 {
		t.Error("leaf heuristic expanded nothing")
	}
	out, _ := runModule(t, mod)
	if !strings.Contains(out, "\n") {
		t.Error("program broken after leaf inlining")
	}
}

func TestHeuristicSmall(t *testing.T) {
	mod, g, prof := build(t, chainSrc)
	res, err := Expand(mod, g, prof, Params{
		Heuristic: HeuristicSmall, SmallCalleeLimit: 10, SizeLimitFactor: 6.0,
	})
	if err != nil {
		t.Fatalf("expand: %v", err)
	}
	for _, d := range res.Expanded {
		if d.Callee == "top" {
			t.Errorf("small-callee heuristic expanded large callee %s", d.Callee)
		}
	}
}

func TestNoLinearOrderStillCorrect(t *testing.T) {
	ordered, g1, prof1 := build(t, chainSrc)
	free, g2, prof2 := build(t, chainSrc)
	wantOut, _ := runModule(t, ordered)

	r1, err := Expand(ordered, g1, prof1, Params{WeightThreshold: 1, SizeLimitFactor: 6.0})
	if err != nil {
		t.Fatalf("ordered expand: %v", err)
	}
	r2, err := Expand(free, g2, prof2, Params{WeightThreshold: 1, SizeLimitFactor: 6.0, NoLinearOrder: true})
	if err != nil {
		t.Fatalf("free expand: %v", err)
	}
	o1, _ := runModule(t, ordered)
	o2, _ := runModule(t, free)
	if o1 != wantOut || o2 != wantOut {
		t.Fatalf("outputs diverge: ordered %q free %q want %q", o1, o2, wantOut)
	}
	// The paper's point: without the order, expansion work is >= ordered
	// (re-expansion of absorbed bodies).
	if r2.NumExpansions < r1.NumExpansions {
		t.Errorf("free expansions %d < ordered %d", r2.NumExpansions, r1.NumExpansions)
	}
}

func TestStackBoundBlocksRecursiveFrames(t *testing.T) {
	src := `
extern int printf(char *fmt, ...);
int bigframe(int n) {
    int pad[1024];
    pad[0] = n;
    return pad[0] + 1;
}
int spin(int n) {
    if (n <= 0) return 0;
    return spin(n - 1) + bigframe(n);
}
int main() {
    int i; int s;
    s = 0;
    for (i = 0; i < 50; i++) s += spin(4);
    printf("%d\n", s);
    return 0;
}
`
	mod, g, prof := build(t, src)
	res, err := Expand(mod, g, prof, Params{
		WeightThreshold: 1, SizeLimitFactor: 8.0, StackBound: 4096,
		ConservativeRecursion: false,
	})
	if err != nil {
		t.Fatalf("expand: %v", err)
	}
	// spin->bigframe would put an 8 KiB frame inside the recursion of
	// spin... but the hazard is about the CALLEE being recursive. Here the
	// callee bigframe is not recursive, so expansion is allowed — and the
	// recursion in spin then carries the 8 KiB frame per level. The
	// conservative mode blocks it because bigframe sits on a $$$-cycle.
	modC, gC, profC := build(t, src)
	resC, err := Expand(modC, gC, profC, Params{
		WeightThreshold: 1, SizeLimitFactor: 8.0, StackBound: 4096,
		ConservativeRecursion: true,
	})
	if err != nil {
		t.Fatalf("conservative expand: %v", err)
	}
	expandedInto := func(r *Result, callee string) bool {
		for _, d := range r.Expanded {
			if d.Callee == callee {
				return true
			}
		}
		return false
	}
	if expandedInto(resC, "bigframe") {
		t.Error("conservative mode must reject the big-frame callee")
	}
	_ = res
	for _, r := range resC.Decisions {
		if r.Callee == "bigframe" && r.Accepted {
			t.Errorf("bigframe accepted under conservative recursion")
		}
	}
}

func TestExpandEmptyProfile(t *testing.T) {
	// With an all-zero profile, profile-guided selection expands nothing.
	mod, _, _ := build(t, chainSrc)
	fresh := callgraph.Build(mod, profile.NewProfile())
	res, err := Expand(mod, fresh, profile.NewProfile(), DefaultParams())
	if err != nil {
		t.Fatalf("expand: %v", err)
	}
	if len(res.Expanded) != 0 {
		t.Errorf("expanded %d arcs with zero weights", len(res.Expanded))
	}
	if res.FinalSize != res.OriginalSize {
		t.Errorf("size changed with no expansions")
	}
}
