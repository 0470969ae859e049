package interp

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"unsafe"

	"inlinec/internal/ir"
	"inlinec/internal/opt"
)

var update = flag.Bool("update", false, "rewrite golden files")

// lowerOpt is lowerSrc followed by the pre-inline optimizer, which is
// what leaves the dead constants behind (it folds them into operands).
func lowerOpt(t *testing.T, src string) *ir.Module {
	t.Helper()
	mod := lowerSrc(t, src)
	opt.PreInlineParallel(mod, 0)
	return mod
}

// components returns the IL instructions bytecode instruction pc
// charges.
func components(bf *bcFunc, pc int) []ir.Instr {
	first := int(bf.origPC[pc])
	return bf.fn.Code[first : first+int(bf.code[pc].n)]
}

// sweepProgs are small programs whose translations charge every kind of
// unexecuted component; TestBudgetSweep checks each kind is present.
var sweepProgs = []struct{ name, src string }{
	{"loop", `int g[4];
int main() {
    int i; int s;
    s = 0;
    for (i = 0; i < 10; i++) {
        if (!(i < 5)) s++; else s += 2;
        g[i & 3] = s;
    }
    return s;
}`},
	{"calls", `extern int putchar(int c);
int count;
int step(int x) { count++; if (x == 0) return 1; return x * step(x - 1); }
int main() {
    int i;
    for (i = 0; i < 4; i++) putchar('a' + step(i) % 26);
    putchar(10);
    return count;
}`},
	{"fault", `int main() {
    int x; int i;
    x = 2;
    for (i = 0; i < 3; i++) x = x + i;
    x = *(int *)16 + x;
    return x;
}`},
}

// TestBudgetSweep trips the instruction budget at every IL instruction
// of each sweep program, and once past the end (and once with a
// negative budget), on both engines: the error text and every RunStats
// field must match, so a trip inside an instruction's charged components
// lands on the exact component the switch engine stops at.
func TestBudgetSweep(t *testing.T) {
	seen := map[string]bool{}
	for _, p := range sweepProgs {
		t.Run(p.name, func(t *testing.T) {
			mod := lowerOpt(t, p.src)
			m, err := NewMachine(mod, NewEnv(), Options{})
			if err != nil {
				t.Fatal(err)
			}
			m.TranslateAll(false)
			for i := range m.bfuncs {
				noteCharges(&m.bfuncs[i], seen)
			}
			_, full, _ := runOn(t, mod, "", Options{Engine: EngineSwitch})
			for maxIL := int64(-1); maxIL <= full.IL+1; maxIL++ {
				if maxIL == 0 {
					continue // 0 means no budget
				}
				opts := Options{MaxIL: maxIL, StackSize: 1 << 16, HeapSize: 1 << 16}
				opts.Engine = EngineSwitch
				swOut, sw, swErr := runOn(t, mod, "", opts)
				opts.Engine = EngineBytecode
				bcOut, bc, bcErr := runOn(t, mod, "", opts)
				if fmt.Sprint(swErr) != fmt.Sprint(bcErr) || swOut != bcOut {
					t.Fatalf("maxIL %d: switch %q %v, bytecode %q %v", maxIL, swOut, swErr, bcOut, bcErr)
				}
				if !reflect.DeepEqual(sw, bc) {
					t.Fatalf("maxIL %d: stats differ:\nswitch   %+v\nbytecode %+v", maxIL, sw, bc)
				}
			}
		})
	}
	for _, kind := range []string{"dead const", "x++ through one address", "inverted chain", "covered memory fault"} {
		if !seen[kind] {
			t.Errorf("no sweep program charges a %s", kind)
		}
	}
}

// noteCharges records which kinds of charged component bf contains.
func noteCharges(bf *bcFunc, seen map[string]bool) {
	loads := map[ir.Reg]int64{} // address register of each direct frame load -> offset
	for pc := range bf.code {
		in := &bf.code[pc]
		if in.op == bcEnd {
			continue
		}
		comps := components(bf, pc)
		last := &comps[len(comps)-1]
		for _, c := range comps[:len(comps)-1] {
			if c.Op == ir.OpConst {
				seen["dead const"] = true
			}
		}
		switch in.op {
		case bcLoadL8:
			loads[last.A.Reg] = in.imm
		case bcStoreL8:
			if off, ok := loads[last.A.Reg]; ok && off == in.imm {
				seen["x++ through one address"] = true
			}
		case bcEqBr, bcNeBr, bcLtBr, bcLeBr, bcGtBr, bcGeBr:
			for _, c := range comps {
				if isCmpOp(c.Op) && binaryBC(c.Op)-bcEq != in.op-bcEqBr {
					seen["inverted chain"] = true
				}
			}
		case bcLoad1, bcLoad8:
			if in.n > 1 && last.A.Kind == ir.VKConst {
				seen["covered memory fault"] = true
			}
		}
	}
}

func isCmpOp(op ir.Op) bool { return op >= ir.OpEq && op <= ir.OpGe }

// TestWcMainGolden pins the translation of the suite's wc main before
// inlining: which IL it charges to which instruction, and what it
// fuses. Regenerate with go test -run TestWcMainGolden -update.
func TestWcMainGolden(t *testing.T) {
	src, err := os.ReadFile(filepath.Join("..", "bench", "progs", "wc.c"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(lowerOpt(t, string(src)), NewEnv(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	m.TranslateAll(false)
	got := m.bfuncs[m.ids["main"]].disasm()
	golden := filepath.Join("testdata", "wc_main.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("wc main translation changed (rerun with -update if intended):\n%s", got)
	}
}

// TestBytecodeInstrSize pins the 32-byte instruction: the IL charge
// lives in what was padding.
func TestBytecodeInstrSize(t *testing.T) {
	if n := unsafe.Sizeof(bcInstr{}); n != 32 {
		t.Errorf("bcInstr is %d bytes, want 32", n)
	}
}
