package opt

import (
	"fmt"
	"testing"

	"inlinec/internal/interp"
	"inlinec/internal/ir"
	"inlinec/internal/irgen"
	"inlinec/internal/parser"
	"inlinec/internal/sema"
)

// compile lowers MiniC source without running any optimization passes.
func compile(t *testing.T, src string) *ir.Module {
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
	return mod
}

func run(t *testing.T, mod *ir.Module) string {
	t.Helper()
	m, err := interp.NewMachine(mod, interp.NewEnv(), interp.Options{})
	if err != nil {
		t.Fatalf("machine: %v", err)
	}
	if _, err := m.Run(); err != nil {
		t.Fatalf("run: %v", err)
	}
	return m.Env.Stdout.String()
}

func countOps(f *ir.Func, op ir.Op) int {
	n := 0
	for i := range f.Code {
		if f.Code[i].Op == op {
			n++
		}
	}
	return n
}

func TestConstFoldArithmetic(t *testing.T) {
	mod := compile(t, `
extern int printf(char *fmt, ...);
int main() {
    int x;
    x = (3 + 4) * (10 - 2); /* folds to 56 at parse/lower or here */
    x = x;                  /* keeps a use */
    printf("%d\n", x);
    return 0;
}
`)
	before := run(t, mod)
	f := mod.Func("main")
	muls := countOps(f, ir.OpMul)
	ConstFold(f)
	if err := mod.Verify(); err != nil {
		t.Fatalf("fold broke module: %v", err)
	}
	if got := countOps(f, ir.OpMul); got > muls {
		t.Errorf("multiplies grew: %d -> %d", muls, got)
	}
	if after := run(t, mod); after != before {
		t.Errorf("output changed: %q -> %q", before, after)
	}
}

func TestConstFoldStopsAtLabels(t *testing.T) {
	// A value assigned before a loop head must not be treated as constant
	// inside the loop, where it changes.
	mod := compile(t, `
extern int printf(char *fmt, ...);
int main() {
    int i; int x;
    x = 1;
    for (i = 0; i < 5; i++) x = x * 2;
    printf("%d\n", x);
    return 0;
}
`)
	want := run(t, mod)
	for i := 0; i < 4; i++ {
		ConstFold(mod.Func("main"))
	}
	if got := run(t, mod); got != want {
		t.Fatalf("fold across labels is unsound: %q -> %q", want, got)
	}
	if want != "32\n" {
		t.Fatalf("baseline wrong: %q", want)
	}
}

func TestJumpOptimizeRemovesJumpToNext(t *testing.T) {
	mod := compile(t, `
int main() {
    int x;
    x = 1;
    if (x) { x = 2; } /* lowering emits a jump to the fall-through label */
    return x & 0;
}
`)
	f := mod.Func("main")
	before := f.CodeSize()
	ConstFold(f)
	JumpOptimize(f)
	if err := mod.Verify(); err != nil {
		t.Fatalf("jump optimization broke module: %v", err)
	}
	if f.CodeSize() >= before {
		t.Errorf("no shrink: %d -> %d", before, f.CodeSize())
	}
	run(t, mod)
}

func TestJumpOptimizeConstantBranch(t *testing.T) {
	mod := compile(t, `
extern int printf(char *fmt, ...);
int main() {
    if (1) printf("yes\n"); else printf("no\n");
    if (0) printf("dead\n");
    return 0;
}
`)
	f := mod.Func("main")
	for i := 0; i < 4; i++ {
		ConstFold(f)
		JumpOptimize(f)
	}
	if err := mod.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if out := run(t, mod); out != "yes\n" {
		t.Fatalf("output = %q", out)
	}
	// The dead printf("dead") call must be gone.
	calls := 0
	for i := range f.Code {
		if f.Code[i].Op == ir.OpCall {
			calls++
		}
	}
	if calls != 1 {
		t.Errorf("dead branch call survived: %d calls", calls)
	}
}

func TestJumpOptimizeChains(t *testing.T) {
	// goto a; a: goto b; b: ... — the first jump should retarget to b.
	mod := compile(t, `
extern int printf(char *fmt, ...);
int main() {
    int x;
    x = 0;
    goto a;
a:  goto b;
b:  x = 7;
    printf("%d\n", x);
    return 0;
}
`)
	f := mod.Func("main")
	JumpOptimize(f)
	if err := mod.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if out := run(t, mod); out != "7\n" {
		t.Fatalf("output = %q", out)
	}
}

func TestJumpOptimizeInfiniteLoopSafe(t *testing.T) {
	// A self-jump (label: jump label) must not hang the chain follower.
	f := &ir.Func{Name: "spin", ReturnsValue: false}
	l := f.NewLabel()
	f.Emit(ir.Instr{Op: ir.OpLabel, Label: l})
	f.Emit(ir.Instr{Op: ir.OpJump, Label: l})
	f.Emit(ir.Instr{Op: ir.OpRet, A: ir.None})
	JumpOptimize(f) // must terminate
}

func TestCopyPropagate(t *testing.T) {
	mod := compile(t, `
extern int printf(char *fmt, ...);
int pass(int v) { return v; }
int main() { printf("%d\n", pass(9)); return 0; }
`)
	want := run(t, mod)
	for _, f := range mod.Funcs {
		CopyPropagate(f)
	}
	if err := mod.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if got := run(t, mod); got != want {
		t.Errorf("output changed: %q -> %q", want, got)
	}
}

func TestDeadCodeEliminate(t *testing.T) {
	mod := compile(t, `
extern int printf(char *fmt, ...);
int main() {
    int kept;
    int unused;
    kept = 5;
    unused = kept * 100; /* the load+mul+store chain stays (store has effects)
                            but pure temporaries of removed uses go */
    printf("%d\n", kept);
    return 0;
}
`)
	want := run(t, mod)
	f := mod.Func("main")
	before := f.CodeSize()
	changed := DeadCodeEliminate(f)
	if err := mod.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if got := run(t, mod); got != want {
		t.Errorf("output changed: %q -> %q", want, got)
	}
	_ = changed
	if f.CodeSize() > before {
		t.Errorf("DCE grew code")
	}
}

func TestPostInlineFixedPointPreservesSemantics(t *testing.T) {
	src := `
extern int printf(char *fmt, ...);
int mix(int a, int b) { return (a ^ b) + (a & b) * 2; }
int main() {
    int i; int acc;
    acc = 1;
    for (i = 0; i < 50; i++) acc = mix(acc, i) & 0xfffff;
    printf("%d\n", acc);
    return 0;
}
`
	mod := compile(t, src)
	want := run(t, mod)
	PostInlineParallel(mod, 0)
	if err := mod.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	if got := run(t, mod); got != want {
		t.Errorf("PostInline changed output: %q -> %q", want, got)
	}
}

// TestOptQuickRandomPrograms: the full pipeline of passes preserves the
// output of random programs (the opt-level slice of the repo-wide
// property test, using the deterministic source generator indirectly via
// arithmetic-heavy synthetic sources).
func TestOptQuickRandomPrograms(t *testing.T) {
	for seed := 0; seed < 12; seed++ {
		// Build a deterministic arithmetic program parameterized by seed.
		src := fmt.Sprintf(`
extern int printf(char *fmt, ...);
int f(int x) { return (x * %d + %d) ^ (x >> %d); }
int g(int x) { return f(x) - f(x / 2) + %d; }
int main() {
    int i; int acc;
    acc = %d;
    for (i = 1; i < 40; i++) {
        acc = acc + g(i);
        if (acc > 100000) acc = acc %% 9973;
        acc = acc * 3 / 2;
    }
    printf("%%d\n", acc);
    return 0;
}
`, seed*7+3, seed+1, seed%5+1, seed*13, seed)
		mod := compile(t, src)
		want := run(t, mod)
		PreInlineParallel(mod, 0)
		if err := mod.Verify(); err != nil {
			t.Fatalf("seed %d: PreInline verify: %v", seed, err)
		}
		if got := run(t, mod); got != want {
			t.Fatalf("seed %d: PreInline changed output %q -> %q", seed, want, got)
		}
		PostInlineParallel(mod, 0)
		if err := mod.Verify(); err != nil {
			t.Fatalf("seed %d: PostInline verify: %v", seed, err)
		}
		if got := run(t, mod); got != want {
			t.Fatalf("seed %d: PostInline changed output %q -> %q", seed, want, got)
		}
	}
}
