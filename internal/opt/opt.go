// Package opt implements the classic IL optimizations the paper's
// pipeline runs around inline expansion. At the time of the paper's
// measurements, constant folding and jump optimization were applied
// before the inline expansion procedure but not after it; copy propagation
// and dead-code elimination are the cleanups section 2.4 suggests for the
// parameter-buffering temporaries a splice introduces. All passes operate
// on the flat IL of package ir.
package opt

import (
	"inlinec/internal/callgraph"
	"inlinec/internal/ir"
	"inlinec/internal/pool"
)

// PreInlineParallel runs the paper's pre-expansion pipeline — constant
// folding then jump optimization, to a local fixed point — on up to par
// workers (0 = all cores, 1 = serial). Each pass reads and writes one
// function only, so any worker count produces an identical module.
func PreInlineParallel(mod *ir.Module, par int) {
	pool.Run(len(mod.Funcs), par, func(_, i int) { preInlineFunc(mod.Funcs[i]) })
}

func preInlineFunc(f *ir.Func) {
	for i := 0; i < 4; i++ {
		changed := ConstFold(f)
		changed = JumpOptimize(f) || changed
		if !changed {
			break
		}
	}
}

// PostInlineParallel runs the cleanup the paper left to future
// measurements — copy propagation, constant folding, dead code
// elimination, and jump optimization, iterated to a fixed point per
// function — on up to par workers (0 = all cores, 1 = serial). The
// passes are function-local, so any worker count produces an identical
// module.
func PostInlineParallel(mod *ir.Module, par int) {
	pool.Run(len(mod.Funcs), par, func(_, i int) { postInlineFunc(mod.Funcs[i]) })
}

func postInlineFunc(f *ir.Func) {
	for i := 0; i < 8; i++ {
		changed := CopyPropagate(f)
		changed = ConstFold(f) || changed
		changed = DeadCodeEliminate(f) || changed
		changed = JumpOptimize(f) || changed
		if !changed {
			break
		}
	}
}

// ----------------------------------------------------------- const folding

// ConstFold propagates constants through straight-line regions (resetting
// at labels) and folds arithmetic on constant operands. It reports whether
// anything changed.
func ConstFold(f *ir.Func) bool {
	changed := false
	known := make(map[ir.Reg]int64)
	sub := func(v ir.Value) ir.Value {
		if v.Kind == ir.VKReg {
			if c, ok := known[v.Reg]; ok {
				changed = true
				return ir.C(c)
			}
		}
		return v
	}
	for i := range f.Code {
		in := &f.Code[i]
		switch in.Op {
		case ir.OpLabel:
			// Join point: constants are no longer known.
			known = make(map[ir.Reg]int64)
			continue
		case ir.OpConst:
			known[in.Dst] = in.A.Imm
			continue
		case ir.OpMov:
			in.A = sub(in.A)
			if in.A.Kind == ir.VKConst {
				in.Op = ir.OpConst
				known[in.Dst] = in.A.Imm
				changed = true
			} else {
				delete(known, in.Dst)
			}
			continue
		case ir.OpNeg, ir.OpNot:
			in.A = sub(in.A)
			if in.A.Kind == ir.VKConst {
				v := in.A.Imm
				if in.Op == ir.OpNeg {
					v = -v
				} else {
					v = ^v
				}
				*in = ir.Instr{Op: ir.OpConst, Dst: in.Dst, A: ir.C(v), Pos: in.Pos}
				known[in.Dst] = v
				changed = true
				continue
			}
		case ir.OpBr:
			in.A = sub(in.A)
			// Constant branches are resolved by JumpOptimize.
		case ir.OpStore:
			in.A = sub(in.A)
			in.B = sub(in.B)
		case ir.OpLoad:
			in.A = sub(in.A)
		case ir.OpRet:
			if in.A.Kind != ir.VKNone {
				in.A = sub(in.A)
			}
		case ir.OpCall, ir.OpCallPtr:
			if in.Op == ir.OpCallPtr {
				in.A = sub(in.A)
			}
			for k := range in.Args {
				in.Args[k] = sub(in.Args[k])
			}
		default:
			if in.Op.IsBinary() {
				in.A = sub(in.A)
				in.B = sub(in.B)
				if in.A.Kind == ir.VKConst && in.B.Kind == ir.VKConst {
					if v, ok := foldBinary(in.Op, in.A.Imm, in.B.Imm); ok {
						*in = ir.Instr{Op: ir.OpConst, Dst: in.Dst, A: ir.C(v), Pos: in.Pos}
						known[in.Dst] = v
						changed = true
						continue
					}
				}
			}
		}
		if in.Dst != ir.NoReg {
			delete(known, in.Dst)
		}
	}
	return changed
}

func foldBinary(op ir.Op, a, b int64) (int64, bool) {
	switch op {
	case ir.OpAdd:
		return a + b, true
	case ir.OpSub:
		return a - b, true
	case ir.OpMul:
		return a * b, true
	case ir.OpDiv:
		if b == 0 {
			return 0, false
		}
		return a / b, true
	case ir.OpRem:
		if b == 0 {
			return 0, false
		}
		return a % b, true
	case ir.OpAnd:
		return a & b, true
	case ir.OpOr:
		return a | b, true
	case ir.OpXor:
		return a ^ b, true
	case ir.OpShl:
		return a << uint64(b&63), true
	case ir.OpShr:
		return int64(uint64(a) >> uint64(b&63)), true
	case ir.OpEq:
		return b2i(a == b), true
	case ir.OpNe:
		return b2i(a != b), true
	case ir.OpLt:
		return b2i(a < b), true
	case ir.OpLe:
		return b2i(a <= b), true
	case ir.OpGt:
		return b2i(a > b), true
	case ir.OpGe:
		return b2i(a >= b), true
	}
	return 0, false
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

// -------------------------------------------------------- jump optimization

// JumpOptimize performs branch cleanups: constant branch resolution, jump
// chaining (a jump to a label whose next real instruction is another
// jump retargets to the final destination), removal of jumps to the
// immediately following label, and unreachable-code removal. It reports
// whether anything changed.
func JumpOptimize(f *ir.Func) bool {
	changed := false

	// Resolve constant conditional branches.
	for i := range f.Code {
		in := &f.Code[i]
		if in.Op == ir.OpBr && in.A.Kind == ir.VKConst {
			if in.A.Imm != 0 {
				*in = ir.Instr{Op: ir.OpJump, Label: in.Label, Pos: in.Pos}
			} else {
				*in = ir.Instr{Op: ir.OpNop, Pos: in.Pos}
			}
			changed = true
		}
	}

	// Jump chaining: follow label -> immediate jump sequences.
	labelAt := f.LabelIndex()
	finalTarget := func(label int) int {
		seen := make(map[int]bool)
		for {
			if seen[label] {
				return label // cycle (e.g. for(;;){}): stop
			}
			seen[label] = true
			idx, ok := labelAt[label]
			if !ok {
				return label
			}
			j := idx + 1
			for j < len(f.Code) && (f.Code[j].Op == ir.OpLabel || f.Code[j].Op == ir.OpNop) {
				j++
			}
			if j < len(f.Code) && f.Code[j].Op == ir.OpJump {
				label = f.Code[j].Label
				continue
			}
			return label
		}
	}
	for i := range f.Code {
		in := &f.Code[i]
		if in.Op == ir.OpJump || in.Op == ir.OpBr {
			if t := finalTarget(in.Label); t != in.Label {
				in.Label = t
				changed = true
			}
		}
	}

	// Remove jumps whose target label directly follows them.
	for i := range f.Code {
		in := &f.Code[i]
		if in.Op != ir.OpJump {
			continue
		}
		j := i + 1
		for j < len(f.Code) && (f.Code[j].Op == ir.OpLabel || f.Code[j].Op == ir.OpNop) {
			if f.Code[j].Op == ir.OpLabel && f.Code[j].Label == in.Label {
				*in = ir.Instr{Op: ir.OpNop, Pos: in.Pos}
				changed = true
				break
			}
			j++
		}
	}

	// Unreachable code: instructions after an unconditional jump or ret,
	// up to the next label, can never execute.
	dead := false
	for i := range f.Code {
		in := &f.Code[i]
		switch in.Op {
		case ir.OpLabel:
			dead = false
		case ir.OpJump, ir.OpRet:
			if dead {
				*in = ir.Instr{Op: ir.OpNop, Pos: in.Pos}
				changed = true
			} else {
				dead = true
			}
		case ir.OpNop:
		default:
			if dead {
				*in = ir.Instr{Op: ir.OpNop, Pos: in.Pos}
				changed = true
			}
		}
	}

	// Drop nops and unreferenced labels.
	used := make(map[int]bool)
	for i := range f.Code {
		if f.Code[i].Op == ir.OpJump || f.Code[i].Op == ir.OpBr {
			used[f.Code[i].Label] = true
		}
	}
	out := f.Code[:0]
	for i := range f.Code {
		in := f.Code[i]
		if in.Op == ir.OpNop {
			changed = true
			continue
		}
		if in.Op == ir.OpLabel && !used[in.Label] {
			changed = true
			continue
		}
		out = append(out, in)
	}
	f.Code = out
	return changed
}

// ----------------------------------------------------------- copy propagate

// CopyPropagate replaces uses of a register that was assigned by a plain
// register move with the source register, within straight-line regions.
// This cleans up the parameter-delivery moves inline expansion introduces.
func CopyPropagate(f *ir.Func) bool {
	changed := false
	alias := make(map[ir.Reg]ir.Reg)
	resolve := func(v ir.Value) ir.Value {
		if v.Kind == ir.VKReg {
			if src, ok := alias[v.Reg]; ok {
				changed = true
				return ir.R(src)
			}
		}
		return v
	}
	kill := func(r ir.Reg) {
		delete(alias, r)
		for d, s := range alias {
			if s == r {
				delete(alias, d)
			}
		}
	}
	for i := range f.Code {
		in := &f.Code[i]
		if in.Op == ir.OpLabel {
			alias = make(map[ir.Reg]ir.Reg)
			continue
		}
		// Substitute uses first.
		switch in.Op {
		case ir.OpStore:
			in.A = resolve(in.A)
			in.B = resolve(in.B)
		case ir.OpCall, ir.OpCallPtr:
			if in.Op == ir.OpCallPtr {
				in.A = resolve(in.A)
			}
			for k := range in.Args {
				in.Args[k] = resolve(in.Args[k])
			}
		case ir.OpRet:
			if in.A.Kind != ir.VKNone {
				in.A = resolve(in.A)
			}
		case ir.OpConst, ir.OpAddrL:
			// No register reads.
		default:
			in.A = resolve(in.A)
			if in.Op.IsBinary() {
				in.B = resolve(in.B)
			}
		}
		// Record or kill definitions.
		if in.Dst != ir.NoReg {
			kill(in.Dst)
			if in.Op == ir.OpMov && in.A.Kind == ir.VKReg && in.A.Reg != in.Dst {
				alias[in.Dst] = in.A.Reg
			}
		}
	}
	return changed
}

// ------------------------------------------------------------- dead code

// DeadCodeEliminate removes side-effect-free instructions whose result
// register is never read anywhere in the function. (Registers are not
// reused across expressions in this IL, so whole-function read sets are a
// sound liveness approximation.)
func DeadCodeEliminate(f *ir.Func) bool {
	read := make(map[ir.Reg]bool)
	note := func(v ir.Value) {
		if v.Kind == ir.VKReg {
			read[v.Reg] = true
		}
	}
	for i := range f.Code {
		in := &f.Code[i]
		switch in.Op {
		case ir.OpLabel, ir.OpConst, ir.OpAddrL:
		case ir.OpStore:
			note(in.A)
			note(in.B)
		case ir.OpCall, ir.OpCallPtr:
			if in.Op == ir.OpCallPtr {
				note(in.A)
			}
			for _, a := range in.Args {
				note(a)
			}
		case ir.OpRet:
			if in.A.Kind != ir.VKNone {
				note(in.A)
			}
		case ir.OpBr:
			note(in.A)
		default:
			note(in.A)
			note(in.B)
		}
	}
	changed := false
	out := f.Code[:0]
	for i := range f.Code {
		in := f.Code[i]
		if in.Dst != ir.NoReg && !read[in.Dst] && isPure(in.Op) {
			changed = true
			continue
		}
		out = append(out, in)
	}
	f.Code = out
	return changed
}

// isPure reports whether the op has no effect other than writing Dst.
// Loads are pure in this memory model (no volatile or I/O locations).
func isPure(op ir.Op) bool {
	switch op {
	case ir.OpConst, ir.OpMov, ir.OpNeg, ir.OpNot,
		ir.OpAddrG, ir.OpAddrL, ir.OpAddrF, ir.OpLoad:
		return true
	}
	return op.IsBinary()
}

// ------------------------------------------------- unreachable functions

// EliminateUnreachable removes functions the call graph proves dead under
// the paper's conservative rules and returns their names. With external
// calls present the graph keeps everything, exactly as section 2.6 warns.
func EliminateUnreachable(mod *ir.Module, g *callgraph.Graph) []string {
	dead := g.UnreachableFunctions()
	for _, name := range dead {
		mod.RemoveFunc(name)
	}
	return dead
}
