package interp

import (
	"encoding/binary"
	"fmt"

	"inlinec/internal/profile"
)

// execBC runs entry(args) to completion over the translated bytecode.
// It is the bytecode twin of exec: one dense switch over pre-decoded
// instructions, with pc, the register file, and the code array held in
// locals so the hot path never chases a frame pointer. Each instruction
// charges its n IL components with one add and one budget test; every
// other counter (control, calls, returns, extern, ptr, site, func)
// increments at exactly the same semantic points as the switch engine,
// so RunStats are bit-identical between engines.
func (m *Machine) execBC(entry *bcFunc, args []int64, st *profile.RunStats) (int64, error) {
	var sp int64 // stack-segment high-water offset
	depth := 0

	f, err := m.pushBC(depth, entry, args, noReg, &sp, st)
	if err != nil {
		return 0, err
	}
	m.rootEntered = true
	depth++

	maxIL := m.opts.MaxIL
	mem := m.mem

	// Segment views and fast-path bounds, hoisted out of the loop. The
	// backing arrays never move during a run (the heap is pre-allocated,
	// not grown), so loads and stores hit these slices directly; anything
	// that misses every window falls back to Memory for the exact fault.
	stackB, globB, heapB := mem.stack, mem.globals, mem.heap
	stackLim1 := int64(len(stackB)) - 1
	stackLim8 := int64(len(stackB)) - 8
	globLim1 := int64(len(globB)) - 1
	globLim8 := int64(len(globB)) - 8
	heapLim1 := int64(len(heapB)) - 1
	heapLim8 := int64(len(heapB)) - 8

	// Current-frame state in locals; reloaded on call and return.
	bf := f.bf
	code := bf.code
	regs := f.regs
	base := f.base           // absolute frame address
	frel := base - StackBase // frame offset within the stack segment
	pc := int32(0)

	// Run counters in locals, flushed into st on every exit path.
	var il, ctl, calls, rets, externs, ptrs int64
	defer func() {
		st.IL += il
		st.Control += ctl
		st.Calls += calls
		st.Returns += rets
		st.ExternCalls += externs
		st.PtrCalls += ptrs
	}()

	// fault builds a RuntimeError at the source position of the
	// instruction's last component, the only one that can fault (cold
	// path only).
	fault := func(pc int32, msg string) error {
		return &RuntimeError{Func: bf.fn.Name, Pos: bf.fn.Code[bf.origPC[pc]+code[pc].n-1].Pos, Msg: msg}
	}

	for {
		in := &code[pc]
		il += int64(in.n)
		if il > maxIL {
			// The switch engine stops at the first component over budget
			// (the first one of the run when MaxIL is negative).
			il -= int64(in.n)
			k := max(maxIL-il, 0)
			il += k + 1
			return 0, &RuntimeError{Func: bf.fn.Name, Pos: bf.fn.Code[bf.origPC[pc]+int32(k)].Pos,
				Msg: fmt.Sprintf("instruction budget exceeded (%d)", maxIL)}
		}

		switch in.op {
		case bcEnd:
			return 0, &RuntimeError{Func: bf.fn.Name, Msg: "fell off the end of the function"}
		case bcNop:
			pc++
		case bcConst:
			regs[in.dst] = in.imm
			pc++
		case bcMov:
			regs[in.dst] = regs[in.a]
			pc++
		case bcNeg:
			regs[in.dst] = -regs[in.a]
			pc++
		case bcNot:
			regs[in.dst] = ^regs[in.a]
			pc++
		case bcAdd:
			regs[in.dst] = regs[in.a] + regs[in.b]
			pc++
		case bcSub:
			regs[in.dst] = regs[in.a] - regs[in.b]
			pc++
		case bcMul:
			regs[in.dst] = regs[in.a] * regs[in.b]
			pc++
		case bcDiv:
			b := regs[in.b]
			if b == 0 {
				return 0, fault(pc, "division by zero")
			}
			regs[in.dst] = regs[in.a] / b
			pc++
		case bcRem:
			b := regs[in.b]
			if b == 0 {
				return 0, fault(pc, "division by zero")
			}
			regs[in.dst] = regs[in.a] % b
			pc++
		case bcAnd:
			regs[in.dst] = regs[in.a] & regs[in.b]
			pc++
		case bcOr:
			regs[in.dst] = regs[in.a] | regs[in.b]
			pc++
		case bcXor:
			regs[in.dst] = regs[in.a] ^ regs[in.b]
			pc++
		case bcShl:
			regs[in.dst] = regs[in.a] << uint64(regs[in.b]&63)
			pc++
		case bcShr:
			regs[in.dst] = int64(uint64(regs[in.a]) >> uint64(regs[in.b]&63))
			pc++
		case bcEq:
			regs[in.dst] = b2i(regs[in.a] == regs[in.b])
			pc++
		case bcNe:
			regs[in.dst] = b2i(regs[in.a] != regs[in.b])
			pc++
		case bcLt:
			regs[in.dst] = b2i(regs[in.a] < regs[in.b])
			pc++
		case bcLe:
			regs[in.dst] = b2i(regs[in.a] <= regs[in.b])
			pc++
		case bcGt:
			regs[in.dst] = b2i(regs[in.a] > regs[in.b])
			pc++
		case bcGe:
			regs[in.dst] = b2i(regs[in.a] >= regs[in.b])
			pc++
		case bcLoad1:
			addr := regs[in.a]
			if off := addr - StackBase; off >= 0 && off <= stackLim1 {
				regs[in.dst] = int64(stackB[off])
			} else if off := addr - HeapBase; off >= 0 && off <= heapLim1 {
				regs[in.dst] = int64(heapB[off])
			} else if off := addr - GlobalsBase; off >= 0 && off <= globLim1 {
				regs[in.dst] = int64(globB[off])
			} else {
				return 0, fault(pc, (&MemError{Addr: addr, Op: "load1"}).Error())
			}
			pc++
		case bcLoad8:
			addr := regs[in.a]
			if off := addr - StackBase; off >= 0 && off <= stackLim8 {
				regs[in.dst] = int64(binary.LittleEndian.Uint64(stackB[off:]))
			} else if off := addr - HeapBase; off >= 0 && off <= heapLim8 {
				regs[in.dst] = int64(binary.LittleEndian.Uint64(heapB[off:]))
			} else if off := addr - GlobalsBase; off >= 0 && off <= globLim8 {
				regs[in.dst] = int64(binary.LittleEndian.Uint64(globB[off:]))
			} else {
				return 0, fault(pc, (&MemError{Addr: addr, Op: "load8"}).Error())
			}
			pc++
		case bcLoadN:
			v, err := mem.Load(regs[in.a], int(in.aux))
			if err != nil {
				return 0, fault(pc, err.Error())
			}
			regs[in.dst] = v
			pc++
		case bcStore1:
			addr := regs[in.a]
			if off := addr - StackBase; off >= 0 && off <= stackLim1 {
				stackB[off] = byte(regs[in.b])
				if off+1 > mem.dirtyStack {
					mem.dirtyStack = off + 1
				}
			} else if off := addr - HeapBase; off >= 0 && off <= heapLim1 {
				heapB[off] = byte(regs[in.b])
				if off+1 > mem.dirtyHeap {
					mem.dirtyHeap = off + 1
				}
			} else if off := addr - GlobalsBase; off >= 0 && off <= globLim1 {
				globB[off] = byte(regs[in.b])
			} else {
				return 0, fault(pc, (&MemError{Addr: addr, Op: "store1"}).Error())
			}
			pc++
		case bcStore8:
			addr := regs[in.a]
			if off := addr - StackBase; off >= 0 && off <= stackLim8 {
				binary.LittleEndian.PutUint64(stackB[off:], uint64(regs[in.b]))
				if off+8 > mem.dirtyStack {
					mem.dirtyStack = off + 8
				}
			} else if off := addr - HeapBase; off >= 0 && off <= heapLim8 {
				binary.LittleEndian.PutUint64(heapB[off:], uint64(regs[in.b]))
				if off+8 > mem.dirtyHeap {
					mem.dirtyHeap = off + 8
				}
			} else if off := addr - GlobalsBase; off >= 0 && off <= globLim8 {
				binary.LittleEndian.PutUint64(globB[off:], uint64(regs[in.b]))
			} else {
				return 0, fault(pc, (&MemError{Addr: addr, Op: "store8"}).Error())
			}
			pc++
		case bcStoreN:
			if err := mem.Store(regs[in.a], int(in.aux), regs[in.b]); err != nil {
				return 0, fault(pc, err.Error())
			}
			pc++
		case bcAddrL:
			regs[in.dst] = base + in.imm
			pc++
		case bcJump:
			ctl++
			pc = in.aux
		case bcBr:
			ctl++
			if regs[in.a] != 0 {
				pc = in.aux
			} else {
				pc++
			}

		// --- compare-branches and direct accesses ------------------------
		case bcEqBr:
			ctl++
			if regs[in.a] == regs[in.b] {
				pc = in.aux
			} else {
				pc++
			}
		case bcNeBr:
			ctl++
			if regs[in.a] != regs[in.b] {
				pc = in.aux
			} else {
				pc++
			}
		case bcLtBr:
			ctl++
			if regs[in.a] < regs[in.b] {
				pc = in.aux
			} else {
				pc++
			}
		case bcLeBr:
			ctl++
			if regs[in.a] <= regs[in.b] {
				pc = in.aux
			} else {
				pc++
			}
		case bcGtBr:
			ctl++
			if regs[in.a] > regs[in.b] {
				pc = in.aux
			} else {
				pc++
			}
		case bcGeBr:
			ctl++
			if regs[in.a] >= regs[in.b] {
				pc = in.aux
			} else {
				pc++
			}
		case bcLoadL1:
			regs[in.dst] = int64(stackB[frel+in.imm])
			pc++
		case bcLoadL8:
			regs[in.dst] = int64(binary.LittleEndian.Uint64(stackB[frel+in.imm:]))
			pc++
		case bcStoreL1:
			stackB[frel+in.imm] = byte(regs[in.b])
			pc++
		case bcStoreL8:
			binary.LittleEndian.PutUint64(stackB[frel+in.imm:], uint64(regs[in.b]))
			pc++
		case bcLoadG1:
			regs[in.dst] = int64(globB[in.imm])
			pc++
		case bcLoadG8:
			regs[in.dst] = int64(binary.LittleEndian.Uint64(globB[in.imm:]))
			pc++
		case bcStoreG1:
			globB[in.imm] = byte(regs[in.b])
			pc++
		case bcStoreG8:
			binary.LittleEndian.PutUint64(globB[in.imm:], uint64(regs[in.b]))
			pc++

		// --- calls and returns -------------------------------------------
		case bcCall:
			ci := &bf.calls[in.aux]
			calls++
			if m.sampleK <= 1 {
				m.siteCounts[ci.site]++
			} else {
				m.bumpSite(int(ci.site))
			}
			callArgs := ci.constArgs
			if callArgs == nil {
				callArgs = m.scratchArgs(len(ci.args))
				for i, r := range ci.args {
					callArgs[i] = regs[r]
				}
			}
			if ci.user != nil {
				f.pc = pc + 1 // resume after the call on return
				nf, err := m.pushBC(depth, ci.user, callArgs, ci.dst, &sp, st)
				if err != nil {
					return 0, fault(pc, err.Error())
				}
				f = nf
				depth++
				bf = f.bf
				code = bf.code
				regs = f.regs
				base = f.base
				frel = base - StackBase
				pc = 0
				continue
			}
			if ci.ext == nil {
				return 0, fault(pc, "unimplemented extern "+ci.sym)
			}
			externs++
			if m.countEntries {
				m.funcCounts[ci.extID]++
			}
			rv, err := ci.ext(m, callArgs)
			if err != nil {
				if _, isExit := err.(*exitError); isExit {
					return 0, err
				}
				return 0, fault(pc, err.Error())
			}
			rets++
			if ci.dst != noReg {
				regs[ci.dst] = rv
			}
			pc++
		case bcCallPtr:
			ci := &bf.calls[in.aux]
			calls++
			ptrs++
			if m.sampleK <= 1 {
				m.siteCounts[ci.site]++
			} else {
				m.bumpSite(int(ci.site))
			}
			target := regs[in.a]
			callArgs := ci.constArgs
			if callArgs == nil {
				callArgs = m.scratchArgs(len(ci.args))
				for i, r := range ci.args {
					callArgs[i] = regs[r]
				}
			}
			var pt *ptrTarget
			if rel := target - FuncBase; rel >= 0 && rel%FuncStride == 0 {
				if idx := rel / FuncStride; idx < int64(len(m.ptrTargets)) {
					pt = &m.ptrTargets[idx]
				}
			}
			if pt != nil && pt.user != nil {
				f.pc = pc + 1
				nf, err := m.pushBC(depth, pt.user, callArgs, ci.dst, &sp, st)
				if err != nil {
					return 0, fault(pc, err.Error())
				}
				if !m.countEntries {
					m.bumpPtrEntry(pt.user.id)
				}
				m.bumpPtrTarget(int(ci.site), pt.user.id)
				f = nf
				depth++
				bf = f.bf
				code = bf.code
				regs = f.regs
				base = f.base
				frel = base - StackBase
				pc = 0
				continue
			}
			if pt != nil && pt.ext != nil {
				externs++
				m.bumpPtrEntry(int(pt.id))
				m.bumpPtrTarget(int(ci.site), int(pt.id))
				rv, err := pt.ext(m, callArgs)
				if err != nil {
					if _, isExit := err.(*exitError); isExit {
						return 0, err
					}
					return 0, fault(pc, err.Error())
				}
				rets++
				if ci.dst != noReg {
					regs[ci.dst] = rv
				}
				pc++
				continue
			}
			return 0, fault(pc, fmt.Sprintf("call through invalid function pointer %#x", target))
		case bcRet, bcRetVoid:
			rets++
			var retVal int64
			if in.op == bcRet {
				retVal = regs[in.a]
			}
			depth--
			if depth == 0 {
				return retVal, nil
			}
			retDst := f.retDst
			f = &m.bframes[depth-1]
			bf = f.bf
			code = bf.code
			regs = f.regs
			base = f.base
			frel = base - StackBase
			pc = f.pc
			sp = frel + int64(bf.fn.FrameSize)
			if retDst != noReg {
				regs[retDst] = retVal
			}

		// --- cold faults --------------------------------------------------
		case bcBadAddrG:
			return 0, fault(pc, "unknown global "+bf.syms[in.aux])
		case bcBadAddrF:
			return 0, fault(pc, "unknown function "+bf.syms[in.aux])
		default:
			return 0, fault(pc, "unhandled opcode "+bf.syms[in.aux])
		}
	}
}

// pushBC activates bf at depth, mirroring push for the bytecode engine:
// pooled frame storage, zeroed registers with the constant pool copied
// into the tail, a zeroed stack frame, and parameters stored into their
// slots. Counter updates (funcCounts, MaxStack) are identical to push.
// The first activation of a function translates it.
func (m *Machine) pushBC(depth int, bf *bcFunc, callArgs []int64, retDst int32, sp *int64, st *profile.RunStats) (*bcFrame, error) {
	fn := bf.fn
	base := (*sp + 15) &^ 15
	if base+int64(fn.FrameSize) > int64(m.mem.StackSize()) {
		return nil, fmt.Errorf("control stack overflow entering %s (frame %d bytes, used %d of %d)",
			fn.Name, fn.FrameSize, base, m.mem.StackSize())
	}
	if bf.code == nil {
		m.translate(bf)
	}
	if depth == len(m.bframes) {
		m.bframes = append(m.bframes, bcFrame{})
	}
	f := &m.bframes[depth]
	f.bf = bf
	f.base = StackBase + base
	f.pc = 0
	f.retDst = retDst
	if cap(f.regs) >= bf.numRegs {
		f.regs = f.regs[:bf.numRegs]
		user := f.regs[:fn.NumRegs]
		for i := range user {
			user[i] = 0
		}
	} else {
		f.regs = make([]int64, bf.numRegs)
	}
	copy(f.regs[fn.NumRegs:], bf.consts)

	stack := m.mem.stack
	fr := stack[base : base+int64(fn.FrameSize)]
	for i := range fr {
		fr[i] = 0
	}
	dirtyEnd := base + int64(fn.FrameSize)
	for i := 0; i < fn.NumParams && i < len(callArgs); i++ {
		slot := &fn.Slots[i]
		off := base + int64(slot.Offset)
		if slot.Size == 1 {
			stack[off] = byte(callArgs[i])
		} else if off+8 <= int64(len(stack)) {
			binary.LittleEndian.PutUint64(stack[off:], uint64(callArgs[i]))
			if off+8 > dirtyEnd {
				dirtyEnd = off + 8
			}
		} else if err := m.mem.Store(StackBase+off, 8, callArgs[i]); err != nil {
			// The parameters already stored must still be re-zeroed when
			// the run gives its stack back.
			m.mem.dirtyStack = max(m.mem.dirtyStack, dirtyEnd)
			return nil, err
		}
	}
	if dirtyEnd > m.mem.dirtyStack {
		m.mem.dirtyStack = dirtyEnd
	}
	*sp = base + int64(fn.FrameSize)
	if *sp > st.MaxStack {
		st.MaxStack = *sp
	}
	if m.countEntries {
		m.funcCounts[bf.id]++
	}
	return f, nil
}
