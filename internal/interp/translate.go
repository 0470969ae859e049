package interp

import (
	"sync"

	"inlinec/internal/ir"
)

// translate compiles bf into bytecode on its first activation (pushBC),
// so a run pays only for the functions it enters. The translator
// resolves everything the bytecode names itself: branch labels through a
// dense per-function label table, direct callees through the machine's
// name table, and global and function addresses through the layout
// NewMachine computed. Its scratch state is cleared per function, so a
// function's bytecode does not depend on which functions were
// translated before it.
//
// Each function is translated in two flat passes. The first records,
// per register, how often it is read and where it is defined; the second
// emits bytecode, charging every IL instruction it can prove unobservable
// (a pure temporary nothing reads, an address all of whose uses become
// direct accesses, a compare consumed by the branch after it) to the
// instruction that follows it (see bytecode.go).
func (m *Machine) translate(bf *bcFunc) {
	t, _ := translators.Get().(*translator)
	if t == nil {
		t = &translator{pool: make(map[int64]int32)}
	}
	t.m = m
	t.function(bf)
	t.m, t.bf = nil, nil
	translators.Put(t)
}

// translators lends translators, with the scratch buffers they have
// grown, to every machine: a machine built for one run would otherwise
// grow a fresh set while translating the functions it enters.
var translators sync.Pool

// regUse is the analysis pass's record of one register.
type regUse struct {
	reads int32 // operand reads anywhere in the function
	// fwd counts the reads that are the address of an in-bounds 1- or
	// 8-byte access after the definition, in the same region (no label
	// in between, so the definition always runs first).
	fwd    int32
	def    int32 // pc of the only definition; -1 none seen, -2 several
	region int32 // region of that definition
	// avail is how many bytes (capped at 8) are addressable from the
	// definition when it is an addrl or a resolved addrg, else 0; off is
	// then its frame offset or globals-segment offset.
	avail int32
	off   int64
}

// forwarded reports whether every read of the register is a direct
// access through its single address definition.
func (u *regUse) forwarded() bool { return u.fwd > 0 && u.fwd == u.reads && u.def >= 0 }

// translator holds the per-function translation state in scratch
// buffers every function reuses; function copies the results out at
// their exact sizes.
type translator struct {
	m *Machine

	use     []regUse
	pool    map[int64]int32
	consts  []int64
	code    []bcInstr
	origPC  []int32
	patches []patch
	// labelBC maps a label id to the bytecode pc of its definition, for
	// ids up to a bound proportional to the function's length; farLabels
	// holds any label beyond it. An undefined label resolves to pc 0, as
	// the switch engine's lookup does.
	labelBC   []int32
	farLabels map[int]int32

	// Counted by analyze for exact allocation: call sites, their
	// arguments, and the arguments of the sites whose arguments are all
	// constants. args and constArgs are the function's backing arrays,
	// carved front to back as call sites are emitted.
	nCalls, nArgs, nConstArgs int
	args                      []int32
	constArgs                 []int64

	bf *bcFunc
	// start is the pc of the first IL instruction not yet charged to an
	// emitted instruction.
	start int
}

// patch is a branch whose target label is resolved after emission.
type patch struct {
	bcPC  int
	label int
}

// binaryBC maps a binary ir.Op to its bytecode opcode. The two opcode
// spaces run in the same order, so the mapping is an offset.
func binaryBC(op ir.Op) bcOp {
	if op >= ir.OpEq { // Eq..Ge follow Neg/Not in the ir numbering
		return bcEq + bcOp(op-ir.OpEq)
	}
	return bcAdd + bcOp(op-ir.OpAdd)
}

// invertCmp maps a comparison to its negation.
var invertCmp = [...]ir.Op{
	ir.OpEq - ir.OpEq: ir.OpNe, ir.OpNe - ir.OpEq: ir.OpEq,
	ir.OpLt - ir.OpEq: ir.OpGe, ir.OpGe - ir.OpEq: ir.OpLt,
	ir.OpLe - ir.OpEq: ir.OpGt, ir.OpGt - ir.OpEq: ir.OpLe,
}

// defines reports whether op writes its Dst register.
func defines(op ir.Op) bool {
	switch op {
	case ir.OpStore, ir.OpJump, ir.OpBr, ir.OpRet, ir.OpNop, ir.OpLabel:
		return false
	}
	return true
}

// bytesFrom is how many bytes, capped at 8, lie in [off, size).
func bytesFrom(off int64, size int) int32 {
	if off < 0 {
		return 0
	}
	return int32(min(max(int64(size)-off, 0), 8))
}

func isZero(v ir.Value) bool { return v.Kind == ir.VKConst && v.Imm == 0 }

// analyze is the pre-pass: reads, definitions and address forwarding
// for every register of the function, the call-site and argument counts
// emission allocates for, and a cleared label table sized to the
// function's largest label.
func (t *translator) analyze(fn *ir.Func) {
	if cap(t.use) < fn.NumRegs {
		t.use = make([]regUse, fn.NumRegs)
	}
	use := t.use[:fn.NumRegs]
	for i := range use {
		use[i] = regUse{def: -1}
	}
	t.use = use
	read := func(v ir.Value) {
		if v.Kind == ir.VKReg && uint(v.Reg) < uint(len(use)) {
			use[v.Reg].reads++
		}
	}
	t.nCalls, t.nArgs, t.nConstArgs = 0, 0, 0
	maxLabel := -1
	region := int32(0)
	for pc := range fn.Code {
		in := &fn.Code[pc]
		switch in.Op {
		case ir.OpLabel:
			region++
			maxLabel = max(maxLabel, in.Label)
			continue
		case ir.OpCall, ir.OpCallPtr:
			t.nCalls++
			t.nArgs += len(in.Args)
			if allConst(in.Args) {
				t.nConstArgs += len(in.Args)
			}
		case ir.OpLoad, ir.OpStore:
			if r := in.A.Reg; in.A.Kind == ir.VKReg && uint(r) < uint(len(use)) {
				if u := &use[r]; u.def >= 0 && u.region == region && (in.Size == 1 || in.Size == 8) && int32(in.Size) <= u.avail {
					u.fwd++
				}
			}
		}
		read(in.A)
		read(in.B)
		for _, a := range in.Args {
			read(a)
		}
		if r := in.Dst; defines(in.Op) && uint(r) < uint(len(use)) {
			u := &use[r]
			if u.def != -1 {
				u.def = -2
				continue
			}
			u.def, u.region = int32(pc), region
			switch in.Op {
			case ir.OpAddrL:
				u.off = int64(fn.Slots[in.A.Imm].Offset)
				u.avail = bytesFrom(u.off, fn.FrameSize)
			case ir.OpAddrG:
				if ga, ok := t.m.globalAddr[in.Sym]; ok {
					u.off = ga - GlobalsBase
					u.avail = bytesFrom(u.off, t.m.globalsLen)
				}
			}
		}
	}

	// Irgen and the inliner number a function's labels densely from 0
	// (ir.Func.NewLabel), so the table stays small; the bound keeps a
	// hand-built label id from sizing it.
	n := min(maxLabel+1, 2*len(fn.Code)+64)
	if cap(t.labelBC) < n {
		t.labelBC = make([]int32, n)
	}
	t.labelBC = t.labelBC[:n]
	clear(t.labelBC)
	clear(t.farLabels)
}

// allConst reports whether every argument is a constant (true for none).
func allConst(args []ir.Value) bool {
	for _, a := range args {
		if a.Kind != ir.VKConst {
			return false
		}
	}
	return true
}

// defineLabel records that label l starts at the next bytecode pc.
func (t *translator) defineLabel(l int) {
	pc := int32(len(t.code))
	if uint(l) < uint(len(t.labelBC)) {
		t.labelBC[l] = pc
		return
	}
	if t.farLabels == nil {
		t.farLabels = make(map[int]int32)
	}
	t.farLabels[l] = pc
}

// labelPC is the bytecode pc label l was defined at (the last definition
// if several, as in ir.Func.LabelIndex), or 0 if it is undefined.
func (t *translator) labelPC(l int) int32 {
	if uint(l) < uint(len(t.labelBC)) {
		return t.labelBC[l]
	}
	return t.farLabels[l]
}

// charged reports whether in is a component the engine need not execute:
// a pure, non-faulting instruction whose register nothing reads, or an
// address definition every use of which became a direct access.
func (t *translator) charged(in *ir.Instr) bool {
	if in.Op == ir.OpNop {
		return true
	}
	if uint(in.Dst) >= uint(len(t.use)) {
		return false
	}
	u := &t.use[in.Dst]
	switch in.Op {
	case ir.OpConst, ir.OpMov, ir.OpNeg, ir.OpNot,
		ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpShr,
		ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe:
		return u.reads == 0
	case ir.OpDiv, ir.OpRem:
		return u.reads == 0 && in.B.Kind == ir.VKConst && in.B.Imm != 0
	case ir.OpAddrL:
		return u.reads == 0 || u.forwarded()
	case ir.OpAddrG:
		if u.forwarded() {
			return true
		}
		if u.reads != 0 {
			return false
		}
		_, ok := t.m.globalAddr[in.Sym]
		return ok
	case ir.OpAddrF:
		if u.reads != 0 {
			return false
		}
		_, ok := t.m.FuncAddr(in.Sym)
		return ok
	}
	return false
}

// nextLive returns the pc of the first instruction at or after pc that
// is not charged, or -1 if a label or the end of the code comes first.
func (t *translator) nextLive(code []ir.Instr, pc int) int {
	for ; pc < len(code); pc++ {
		if code[pc].Op == ir.OpLabel {
			return -1
		}
		if !t.charged(&code[pc]) {
			return pc
		}
	}
	return -1
}

// emit appends in as the instruction whose last component is last,
// charging it everything from t.start.
func (t *translator) emit(last int, in bcInstr) {
	in.n = int32(last - t.start + 1)
	t.code = append(t.code, in)
	t.origPC = append(t.origPC, int32(t.start))
	t.start = last + 1
}

// flush emits a bcNop carrying the charge of any components pending
// before pc (a label or the end of the code).
func (t *translator) flush(pc int) {
	if t.start < pc {
		t.emit(pc-1, bcInstr{op: bcNop})
	}
	t.start = pc + 1
}

// poolReg returns the constant-pool register holding v.
func (t *translator) poolReg(v int64) int32 {
	if r, ok := t.pool[v]; ok {
		return r
	}
	r := int32(t.bf.fn.NumRegs + len(t.consts))
	t.pool[v] = r
	t.consts = append(t.consts, v)
	return r
}

func (t *translator) operand(v ir.Value) int32 {
	if v.Kind == ir.VKConst {
		return t.poolReg(v.Imm)
	}
	return int32(v.Reg)
}

func (t *translator) symIdx(s string) int32 {
	t.bf.syms = append(t.bf.syms, s)
	return int32(len(t.bf.syms) - 1)
}

// branch records that the instruction just emitted branches to label.
func (t *translator) branch(label int) {
	t.patches = append(t.patches, patch{len(t.code) - 1, label})
}

// cmpBranch tries to fuse the compare at pc with the conditional branch
// that consumes it, through any eq/ne #0 tests in between, each result
// read exactly once. It returns the branch's pc, or -1.
func (t *translator) cmpBranch(code []ir.Instr, pc int) int {
	in := &code[pc]
	op, reg := in.Op, in.Dst
	for {
		if uint(reg) >= uint(len(t.use)) || t.use[reg].reads != 1 {
			return -1
		}
		j := t.nextLive(code, pc+1)
		if j < 0 {
			return -1
		}
		nx := &code[j]
		if nx.Op == ir.OpBr && nx.A.Kind == ir.VKReg && nx.A.Reg == reg {
			t.emit(j, bcInstr{op: bcEqBr + bcOp(op-ir.OpEq), a: t.operand(in.A), b: t.operand(in.B)})
			t.branch(nx.Label)
			return j
		}
		if nx.Op != ir.OpEq && nx.Op != ir.OpNe {
			return -1
		}
		switch {
		case nx.A.Kind == ir.VKReg && nx.A.Reg == reg && isZero(nx.B):
		case nx.B.Kind == ir.VKReg && nx.B.Reg == reg && isZero(nx.A):
		default:
			return -1
		}
		if nx.Op == ir.OpEq {
			op = invertCmp[op-ir.OpEq]
		}
		pc, reg = j, nx.Dst
	}
}

// access emits the load or store at pc as a direct frame or global
// access when its address register is forwarded, reporting whether it
// did.
func (t *translator) access(in *ir.Instr, pc int) bool {
	r := in.A.Reg
	if in.A.Kind != ir.VKReg || uint(r) >= uint(len(t.use)) || !t.use[r].forwarded() {
		return false
	}
	u := &t.use[r]
	global := t.bf.fn.Code[u.def].Op == ir.OpAddrG
	var op bcOp
	switch {
	case in.Op == ir.OpLoad && !global:
		op = bcLoadL1
	case in.Op == ir.OpStore && !global:
		op = bcStoreL1
	case in.Op == ir.OpLoad:
		op = bcLoadG1
	default:
		op = bcStoreG1
	}
	if in.Size == 8 {
		op++ // each 8-byte form follows its 1-byte form
	}
	if in.Op == ir.OpLoad {
		t.emit(pc, bcInstr{op: op, dst: int32(in.Dst), imm: u.off})
	} else {
		t.emit(pc, bcInstr{op: op, b: t.operand(in.B), imm: u.off})
	}
	return true
}

func (t *translator) function(bf *bcFunc) {
	fn := bf.fn
	code := fn.Code
	t.bf, t.start = bf, 0
	t.analyze(fn)
	clear(t.pool)
	t.consts, t.code, t.origPC, t.patches = t.consts[:0], t.code[:0], t.origPC[:0], t.patches[:0]
	bf.calls = make([]bcCallInfo, 0, t.nCalls)
	t.args = make([]int32, t.nArgs)
	t.constArgs = make([]int64, t.nConstArgs)

	for pc := 0; pc < len(code); pc++ {
		in := &code[pc]
		if in.Op == ir.OpLabel {
			// Labels are not executed and not counted; pending charges
			// must not run into a branch target.
			t.flush(pc)
			t.defineLabel(in.Label)
			continue
		}
		if t.charged(in) {
			continue
		}
		switch in.Op {
		case ir.OpConst:
			t.emit(pc, bcInstr{op: bcConst, dst: int32(in.Dst), imm: in.A.Imm})
		case ir.OpMov:
			if in.A.Kind == ir.VKConst {
				t.emit(pc, bcInstr{op: bcConst, dst: int32(in.Dst), imm: in.A.Imm})
			} else {
				t.emit(pc, bcInstr{op: bcMov, dst: int32(in.Dst), a: int32(in.A.Reg)})
			}
		case ir.OpNeg:
			t.emit(pc, bcInstr{op: bcNeg, dst: int32(in.Dst), a: t.operand(in.A)})
		case ir.OpNot:
			t.emit(pc, bcInstr{op: bcNot, dst: int32(in.Dst), a: t.operand(in.A)})
		case ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe:
			if j := t.cmpBranch(code, pc); j >= 0 {
				pc = j
				break
			}
			t.emit(pc, bcInstr{op: binaryBC(in.Op), dst: int32(in.Dst), a: t.operand(in.A), b: t.operand(in.B)})
		case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpRem,
			ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpShr:
			t.emit(pc, bcInstr{op: binaryBC(in.Op), dst: int32(in.Dst), a: t.operand(in.A), b: t.operand(in.B)})
		case ir.OpLoad:
			if t.access(in, pc) {
				break
			}
			op := bcLoadN
			switch in.Size {
			case 1:
				op = bcLoad1
			case 8:
				op = bcLoad8
			}
			t.emit(pc, bcInstr{op: op, dst: int32(in.Dst), a: t.operand(in.A), aux: int32(in.Size)})
		case ir.OpStore:
			if t.access(in, pc) {
				break
			}
			op := bcStoreN
			switch in.Size {
			case 1:
				op = bcStore1
			case 8:
				op = bcStore8
			}
			t.emit(pc, bcInstr{op: op, a: t.operand(in.A), b: t.operand(in.B), aux: int32(in.Size)})
		case ir.OpAddrL:
			t.emit(pc, bcInstr{op: bcAddrL, dst: int32(in.Dst), imm: int64(fn.Slots[in.A.Imm].Offset)})
		case ir.OpAddrG:
			if ga, ok := t.m.globalAddr[in.Sym]; ok {
				t.emit(pc, bcInstr{op: bcConst, dst: int32(in.Dst), imm: ga})
			} else {
				t.emit(pc, bcInstr{op: bcBadAddrG, aux: t.symIdx(in.Sym)})
			}
		case ir.OpAddrF:
			if addr, ok := t.m.FuncAddr(in.Sym); ok {
				t.emit(pc, bcInstr{op: bcConst, dst: int32(in.Dst), imm: addr})
			} else {
				t.emit(pc, bcInstr{op: bcBadAddrF, aux: t.symIdx(in.Sym)})
			}
		case ir.OpJump:
			t.emit(pc, bcInstr{op: bcJump})
			t.branch(in.Label)
		case ir.OpBr:
			t.emit(pc, bcInstr{op: bcBr, a: t.operand(in.A)})
			t.branch(in.Label)
		case ir.OpCall, ir.OpCallPtr:
			t.call(in, pc)
		case ir.OpRet:
			if in.A.Kind == ir.VKNone {
				t.emit(pc, bcInstr{op: bcRetVoid})
			} else {
				t.emit(pc, bcInstr{op: bcRet, a: t.operand(in.A)})
			}
		default:
			t.emit(pc, bcInstr{op: bcBadOp, aux: t.symIdx(in.Op.String())})
		}
	}
	t.flush(len(code))
	t.code = append(t.code, bcInstr{op: bcEnd})
	t.origPC = append(t.origPC, int32(len(code)))
	for _, p := range t.patches {
		t.code[p.bcPC].aux = t.labelPC(p.label)
	}

	t.args, t.constArgs = nil, nil // now bf's; the pooled translator keeps only scratch

	bf.consts = append([]int64(nil), t.consts...)
	bf.numRegs = fn.NumRegs + len(bf.consts)
	bf.origPC = append([]int32(nil), t.origPC...)
	bf.code = append([]bcInstr(nil), t.code...) // non-nil: bf is translated
}

// call emits the call at pc, resolving a direct callee by name.
func (t *translator) call(in *ir.Instr, pc int) {
	m := t.m
	info := bcCallInfo{site: int32(in.CallID), dst: int32(in.Dst), sym: in.Sym}
	if id, ok := m.ids[in.Sym]; ok && in.Op == ir.OpCall {
		if int(id) < len(m.bfuncs) {
			info.user = &m.bfuncs[id]
		} else {
			info.ext, info.extID = m.impls[id], id
		}
	}
	n := len(in.Args)
	info.args, t.args = t.args[:n:n], t.args[n:]
	for i, a := range in.Args {
		info.args[i] = t.operand(a)
	}
	if allConst(in.Args) {
		// call-with-const-args: the argument vector is fully known at
		// translate time.
		info.constArgs, t.constArgs = t.constArgs[:n:n], t.constArgs[n:]
		for i, a := range in.Args {
			info.constArgs[i] = a.Imm
		}
	}
	op := bcCall
	var target int32
	if in.Op == ir.OpCallPtr {
		op = bcCallPtr
		target = t.operand(in.A)
	}
	t.emit(pc, bcInstr{op: op, a: target, aux: int32(len(t.bf.calls))})
	t.bf.calls = append(t.bf.calls, info)
}
