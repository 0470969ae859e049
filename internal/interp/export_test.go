package interp

import (
	"fmt"

	"inlinec/internal/ir"
)

// TranslateAll translates every function not yet translated, as if each
// were entered, in module order or in reverse. Tests use it to reach the
// functions a run never enters.
func (m *Machine) TranslateAll(reverse bool) {
	for k := range m.bfuncs {
		i := k
		if reverse {
			i = len(m.bfuncs) - 1 - k
		}
		if m.bfuncs[i].code == nil {
			m.translate(&m.bfuncs[i])
		}
	}
}

// Translated returns, per function in module order, the disassembly of
// its translation, or "" if it has none yet.
func (m *Machine) Translated() []string {
	out := make([]string, len(m.bfuncs))
	for i := range m.bfuncs {
		if m.bfuncs[i].code != nil {
			out[i] = m.bfuncs[i].disasm()
		}
	}
	return out
}

// CheckCharges translates every function of mod for the bytecode engine
// and checks the accounting contract of each: the instructions'
// component ranges cover each non-label IL instruction exactly once, in
// order, and every component that is not an instruction's last (or that
// belongs to a bcNop, which executes nothing) is pure and cannot fault.
// It returns the first violation.
func CheckCharges(mod *ir.Module) error {
	m, err := NewMachine(mod, NewEnv(), Options{})
	if err != nil {
		return err
	}
	m.TranslateAll(false)
	for i := range m.bfuncs {
		if err := checkCharges(mod, &m.bfuncs[i]); err != nil {
			return fmt.Errorf("func %s: %w", m.bfuncs[i].fn.Name, err)
		}
	}
	return nil
}

func checkCharges(mod *ir.Module, bf *bcFunc) error {
	code := bf.fn.Code
	next := 0 // the next IL instruction a range must start at
	skipLabels := func() {
		for next < len(code) && code[next].Op == ir.OpLabel {
			next++
		}
	}
	for pc := range bf.code {
		in := &bf.code[pc]
		if in.op == bcEnd {
			if pc != len(bf.code)-1 || in.n != 0 {
				return fmt.Errorf("bc %d: end is not last or charges %d", pc, in.n)
			}
			continue
		}
		skipLabels()
		first, n := int(bf.origPC[pc]), int(in.n)
		if first != next || n < 1 || first+n > len(code) {
			return fmt.Errorf("bc %d (%s): charges il[%d+%d], want a range from il %d", pc, in.op, first, n, next)
		}
		for k := first; k < first+n; k++ {
			c := &code[k]
			if c.Op == ir.OpLabel {
				return fmt.Errorf("bc %d (%s): range il[%d+%d] spans label at %d", pc, in.op, first, n, k)
			}
			if (k < first+n-1 || in.op == bcNop) && !pureComponent(mod, c) {
				return fmt.Errorf("bc %d (%s): skipped component il %d (%s) is not pure", pc, in.op, k, c)
			}
		}
		next = first + n
	}
	skipLabels()
	if next != len(code) {
		return fmt.Errorf("il %d onward is never charged", next)
	}
	return nil
}

// pureComponent reports whether executing in can neither fault nor
// touch anything but its own register: the only instructions the
// engine may charge without running.
func pureComponent(mod *ir.Module, in *ir.Instr) bool {
	switch in.Op {
	case ir.OpNop, ir.OpConst, ir.OpMov, ir.OpNeg, ir.OpNot, ir.OpAddrL,
		ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpShr,
		ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe:
		return true
	case ir.OpDiv, ir.OpRem:
		return in.B.Kind == ir.VKConst && in.B.Imm != 0
	case ir.OpAddrG:
		return mod.Global(in.Sym) != nil
	case ir.OpAddrF:
		return mod.Func(in.Sym) != nil || mod.IsExtern(in.Sym)
	}
	return false
}
