package interp

import (
	"inlinec/internal/ir"
)

// translate compiles every loaded function into bytecode. It runs after
// NewMachine's resolution passes and consumes their results — the dense
// function ids, resolved call targets, and branch targets in cfs — so
// the bytecode engine observes exactly the same counter layout as the
// switch engine.
//
// Each function is translated in two flat passes. The first records,
// per register, how often it is read and where it is defined; the second
// emits bytecode, charging every IL instruction it can prove unobservable
// (a pure temporary nothing reads, an address all of whose uses become
// direct accesses, a compare consumed by the branch after it) to the
// instruction that follows it (see bytecode.go).
func (m *Machine) translate(cfs []*compiledFunc) {
	t := translator{m: m, pool: make(map[int64]int32)}
	t.globalAddr, t.globalsLen = layoutGlobals(m.Mod)
	m.bfuncs = make(map[string]*bcFunc, len(cfs))
	bfs := make([]*bcFunc, len(cfs))
	for i, cf := range cfs {
		bf := &bcFunc{fn: cf.fn, id: cf.id,
			countEntry: m.entryCount == nil || m.entryCount[cf.id]}
		bfs[i] = bf
		m.bfuncs[cf.fn.Name] = bf
	}
	for i, cf := range cfs {
		t.function(cf, bfs[i])
	}

	// Dense function-pointer table over user functions and declared
	// externs (the only symbols with runtime addresses).
	m.ptrTargets = make([]ptrTarget, len(m.Mod.Funcs)+len(m.Mod.Externs))
	for addr, cf := range m.byAddr {
		m.ptrTargets[(addr-FuncBase)/FuncStride] = ptrTarget{user: m.bfuncs[cf.fn.Name]}
	}
	for addr, et := range m.extByAddr {
		m.ptrTargets[(addr-FuncBase)/FuncStride] = ptrTarget{ext: et.impl, id: int32(et.id)}
	}
}

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

// translator holds the per-translation state and the scratch buffers
// every function reuses.
type translator struct {
	m          *Machine
	globalAddr map[string]int64
	globalsLen int

	use     []regUse
	pool    map[int64]int32
	irToBC  []int32
	patches []patch

	cf *compiledFunc
	bf *bcFunc
	// start is the pc of the first IL instruction not yet charged to an
	// emitted instruction.
	start int
}

// patch is a branch whose target label is resolved after emission.
type patch struct {
	bcPC     int
	irTarget int32
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
// for every register of the function.
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
	region := int32(0)
	for pc := range fn.Code {
		in := &fn.Code[pc]
		switch in.Op {
		case ir.OpLabel:
			region++
			continue
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
				if ga, ok := t.globalAddr[in.Sym]; ok {
					u.off = ga - GlobalsBase
					u.avail = bytesFrom(u.off, t.globalsLen)
				}
			}
		}
	}
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
		_, ok := t.globalAddr[in.Sym]
		return ok
	case ir.OpAddrF:
		if u.reads != 0 {
			return false
		}
		_, ok := t.m.addrByName[in.Sym]
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
	t.bf.code = append(t.bf.code, in)
	t.bf.origPC = append(t.bf.origPC, int32(t.start))
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
	r := int32(t.bf.fn.NumRegs + len(t.bf.consts))
	t.pool[v] = r
	t.bf.consts = append(t.bf.consts, v)
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

// branch records a branch emitted at the current end of the code, to
// the label targeted by the IL branch at pc.
func (t *translator) branch(pc int) {
	t.patches = append(t.patches, patch{len(t.bf.code) - 1, t.cf.branchPC[pc]})
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
			t.branch(j)
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
	global := t.cf.fn.Code[u.def].Op == ir.OpAddrG
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

func (t *translator) function(cf *compiledFunc, bf *bcFunc) {
	fn := cf.fn
	code := fn.Code
	t.cf, t.bf, t.start = cf, bf, 0
	t.analyze(fn)
	clear(t.pool)
	t.patches = t.patches[:0]
	if cap(t.irToBC) < len(code) {
		t.irToBC = make([]int32, len(code))
	}
	irToBC := t.irToBC[:len(code)]
	bf.code = make([]bcInstr, 0, len(code)+1)
	bf.origPC = make([]int32, 0, len(code)+1)

	for pc := 0; pc < len(code); pc++ {
		in := &code[pc]
		if in.Op == ir.OpLabel {
			// Labels are not executed and not counted; pending charges
			// must not run into a branch target.
			t.flush(pc)
			irToBC[pc] = int32(len(bf.code))
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
			if ga, ok := t.globalAddr[in.Sym]; ok {
				t.emit(pc, bcInstr{op: bcConst, dst: int32(in.Dst), imm: ga})
			} else {
				t.emit(pc, bcInstr{op: bcBadAddrG, aux: t.symIdx(in.Sym)})
			}
		case ir.OpAddrF:
			if addr, ok := t.m.addrByName[in.Sym]; ok {
				t.emit(pc, bcInstr{op: bcConst, dst: int32(in.Dst), imm: addr})
			} else {
				t.emit(pc, bcInstr{op: bcBadAddrF, aux: t.symIdx(in.Sym)})
			}
		case ir.OpJump:
			t.emit(pc, bcInstr{op: bcJump})
			t.branch(pc)
		case ir.OpBr:
			t.emit(pc, bcInstr{op: bcBr, a: t.operand(in.A)})
			t.branch(pc)
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
	bf.code = append(bf.code, bcInstr{op: bcEnd})
	bf.origPC = append(bf.origPC, int32(len(code)))

	for _, p := range t.patches {
		bf.code[p.bcPC].aux = irToBC[p.irTarget]
	}
	bf.numRegs = fn.NumRegs + len(bf.consts)
}

// call emits the call at pc with its pre-resolved site metadata.
func (t *translator) call(in *ir.Instr, pc int) {
	m := t.m
	info := bcCallInfo{site: int32(in.CallID), dst: int32(in.Dst), sym: in.Sym,
		countSite: m.siteCount == nil || m.siteCount[in.CallID]}
	if in.Op == ir.OpCall {
		ct := &t.cf.callees[pc]
		if ct.user != nil {
			info.user = m.bfuncs[ct.user.fn.Name]
		} else {
			info.ext = ct.ext
			info.extID = int32(ct.id)
			info.countExtEntry = m.entryCount == nil || m.entryCount[ct.id]
		}
	}
	info.args = make([]int32, len(in.Args))
	allConst := true
	for i, a := range in.Args {
		info.args[i] = t.operand(a)
		allConst = allConst && a.Kind == ir.VKConst
	}
	if allConst {
		// call-with-const-args: the argument vector is fully known at
		// translate time.
		info.constArgs = make([]int64, len(in.Args))
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
