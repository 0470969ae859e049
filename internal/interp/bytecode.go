package interp

import (
	"fmt"
	"strings"

	"inlinec/internal/ir"
)

// This file defines the bytecode the default engine executes.
// Translation (translate.go) compiles each ir.Func, on its first
// activation, into a dense array of fixed-width bcInstr with every name
// resolved before it runs: operands become register indices (constants
// get pool registers preloaded at function entry, so the dispatch loop
// never inspects an operand kind), branch targets become bytecode PCs,
// call sites become direct *bcFunc/extern pointers, and global/function
// addresses become immediates.
//
// One bytecode instruction stands for a run of consecutive IL
// instructions, its components: n of them, starting at origPC. Every
// component but the last is pure and cannot fault — a temporary nothing
// reads, an address every use of which became a direct frame or global
// access, the compare feeding a branch — so the engine skips its work
// and only charges its IL. The last component does the instruction's
// work and is the only one that can fault, branch or call. The dispatch
// loop therefore adds n to the IL count and tests the budget once per
// bytecode instruction, and RunStats stay bit-identical to the switch
// engine.

// bcOp is a compact bytecode opcode. The values are contiguous so the
// dispatch switch compiles to a dense jump table.
type bcOp uint8

const (
	// bcEnd is the sentinel appended after the last instruction: reaching
	// it reproduces the switch engine's "fell off the end" fault.
	bcEnd   bcOp = iota
	bcNop        // charges IL only: pure components ending just before a label
	bcConst      // regs[dst] = imm (also resolved addrg/addrf/mov-const)
	bcMov        // regs[dst] = regs[a]
	bcNeg
	bcNot
	bcAdd // regs[dst] = regs[a] OP regs[b] for the binary group
	bcSub
	bcMul
	bcDiv
	bcRem
	bcAnd
	bcOr
	bcXor
	bcShl
	bcShr
	bcEq
	bcNe
	bcLt
	bcLe
	bcGt
	bcGe
	bcLoad1  // regs[dst] = mem1[regs[a]]
	bcLoad8  // regs[dst] = mem8[regs[a]]
	bcLoadN  // odd widths: regs[dst] = Memory.Load(regs[a], aux)
	bcStore1 // mem1[regs[a]] = regs[b]
	bcStore8 // mem8[regs[a]] = regs[b]
	bcStoreN
	bcAddrL   // regs[dst] = frame base + imm
	bcJump    // pc = aux
	bcBr      // if regs[a] != 0 { pc = aux }
	bcRet     // return regs[a]
	bcRetVoid // return 0
	bcCall    // invoke calls[aux]
	bcCallPtr // invoke *regs[a] with calls[aux] metadata

	// Compare-branches: the last component is a conditional branch on a
	// compare (possibly through eq/ne #0 tests, folded into the opcode)
	// whose result nothing else reads, so it is never written.
	bcEqBr // if regs[a] == regs[b] { pc = aux }
	bcNeBr
	bcLtBr
	bcLeBr
	bcGtBr
	bcGeBr

	// Direct accesses: a 1- or 8-byte load or store through an address
	// every use of which is a known in-bounds frame (L) or global (G)
	// offset. The address component is charged, never materialized.
	bcLoadL1  // regs[dst] = stack1[frame + imm]
	bcLoadL8  // regs[dst] = stack8[frame + imm]
	bcStoreL1 // stack1[frame + imm] = regs[b]
	bcStoreL8
	bcLoadG1 // regs[dst] = globals1[imm]
	bcLoadG8 // regs[dst] = globals8[imm]
	bcStoreG1
	bcStoreG8

	// Cold placeholders for instructions that can only fault: they keep
	// the fault lazy (a program that never executes the bad instruction
	// never sees the error), exactly like the switch engine.
	bcBadAddrG // unknown global syms[aux]
	bcBadAddrF // unknown function syms[aux]
	bcBadOp    // unhandled opcode syms[aux]
)

var bcOpNames = [...]string{
	bcEnd: "end", bcNop: "nop", bcConst: "const", bcMov: "mov",
	bcNeg: "neg", bcNot: "not",
	bcAdd: "add", bcSub: "sub", bcMul: "mul", bcDiv: "div", bcRem: "rem",
	bcAnd: "and", bcOr: "or", bcXor: "xor", bcShl: "shl", bcShr: "shr",
	bcEq: "eq", bcNe: "ne", bcLt: "lt", bcLe: "le", bcGt: "gt", bcGe: "ge",
	bcLoad1: "load1", bcLoad8: "load8", bcLoadN: "loadN",
	bcStore1: "store1", bcStore8: "store8", bcStoreN: "storeN",
	bcAddrL: "addrl", bcJump: "jump", bcBr: "br",
	bcRet: "ret", bcRetVoid: "ret.void",
	bcCall: "call", bcCallPtr: "callptr",
	bcEqBr: "eq.br", bcNeBr: "ne.br", bcLtBr: "lt.br",
	bcLeBr: "le.br", bcGtBr: "gt.br", bcGeBr: "ge.br",
	bcLoadL1: "loadl1", bcLoadL8: "loadl8",
	bcStoreL1: "storel1", bcStoreL8: "storel8",
	bcLoadG1: "loadg1", bcLoadG8: "loadg8",
	bcStoreG1: "storeg1", bcStoreG8: "storeg8",
	bcBadAddrG: "bad.addrg", bcBadAddrF: "bad.addrf", bcBadOp: "bad.op",
}

func (op bcOp) String() string {
	if int(op) < len(bcOpNames) {
		return bcOpNames[op]
	}
	return fmt.Sprintf("bcOp(%d)", int(op))
}

// noReg is ir.NoReg in the bytecode's int32 register encoding.
const noReg int32 = -1

// bcInstr is one fixed-width pre-decoded instruction (32 bytes: n sits
// in what would otherwise be padding before imm).
type bcInstr struct {
	op  bcOp
	dst int32 // destination register
	a   int32 // first source register
	b   int32 // second source register
	aux int32 // branch target pc / call index / sym index / access width
	n   int32 // IL components charged (0 for bcEnd)
	imm int64 // constant / resolved address / frame or globals offset
}

// bcCallInfo is the pre-resolved metadata of one static call site.
type bcCallInfo struct {
	user  *bcFunc    // non-nil for calls into user functions
	ext   ExternImpl // non-nil for resolved externs
	extID int32      // dense function id of the extern callee
	site  int32      // static call-site id (CallID)
	dst   int32      // caller register receiving the return value, or noReg
	args  []int32    // argument registers (constants via the pool)
	// constArgs, when non-nil, is the fully evaluated argument vector for
	// call sites whose arguments are all constants; the call passes it
	// directly instead of gathering registers (callees copy or read, never
	// mutate, so sharing one backing array is safe).
	constArgs []int64
	sym       string // callee symbol, for unimplemented-extern faults
}

// ptrTarget is one entry of the dense function-pointer table indexed by
// (address - FuncBase) / FuncStride: a user function or a declared
// extern.
type ptrTarget struct {
	user *bcFunc
	ext  ExternImpl
	id   int32 // dense function id (meaningful for extern entries)
}

// bcFunc is one function of the bytecode engine. Everything but fn and
// id is filled in by its translation, on its first activation; code is
// nil until then.
type bcFunc struct {
	fn      *ir.Func
	id      int
	numRegs int     // fn.NumRegs + len(consts)
	consts  []int64 // constant pool, preloaded into regs[fn.NumRegs:]
	code    []bcInstr
	// origPC maps a bytecode pc to the index in fn.Code of its first
	// component; the instruction covers fn.Code[origPC : origPC+n], and a
	// fault is positioned at the last of those.
	origPC []int32
	calls  []bcCallInfo
	syms   []string // interned symbols for cold fault messages
}

// bcFrame is one bytecode activation record.
type bcFrame struct {
	bf     *bcFunc
	base   int64 // absolute stack address of the frame
	regs   []int64
	pc     int32
	retDst int32
}

// disasm renders the translated function, for tests and debugging.
func (bf *bcFunc) disasm() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s: %d bc instrs, %d regs (%d pooled consts)\n",
		bf.fn.Name, len(bf.code), bf.numRegs, len(bf.consts))
	for pc, in := range bf.code {
		fmt.Fprintf(&sb, "  %3d: %-8s dst=%d a=%d b=%d aux=%d imm=%d  il[%d+%d]\n",
			pc, in.op, in.dst, in.a, in.b, in.aux, in.imm, bf.origPC[pc], in.n)
	}
	return sb.String()
}
