package interp

import (
	"fmt"
	"slices"

	"inlinec/internal/ir"
	"inlinec/internal/obs"
	"inlinec/internal/profile"
	"inlinec/internal/token"
)

// RuntimeError is an execution fault with the faulting location.
type RuntimeError struct {
	Func string
	Pos  token.Pos
	Msg  string
}

func (e *RuntimeError) Error() string {
	if e.Pos.IsValid() {
		return fmt.Sprintf("runtime error in %s at %s: %s", e.Func, e.Pos, e.Msg)
	}
	return fmt.Sprintf("runtime error in %s: %s", e.Func, e.Msg)
}

// The available execution engines. EngineBytecode translates each
// function into dense pre-decoded bytecode at load time and dispatches
// over it (see bytecode.go); EngineSwitch interprets ir.Instr directly
// and is kept as the differential-testing oracle. Both produce
// bit-identical RunStats for every program.
const (
	EngineBytecode = "bytecode"
	EngineSwitch   = "switch"
)

// Options configures a Machine.
type Options struct {
	// StackSize bounds the control stack in bytes (0 = DefaultStackSize).
	StackSize int
	// HeapSize bounds the heap in bytes (0 = DefaultHeapSize).
	HeapSize int
	// MaxIL aborts the run after this many executed instructions
	// (0 = 2^40, effectively unlimited for benchmarks).
	MaxIL int64
	// Trace, when non-nil, is invoked for every executed real instruction
	// with the containing function and instruction index. Used by the
	// instruction-cache simulator. A traced machine runs on the switch
	// engine, whatever Engine asks for: the bytecode engine charges
	// several instructions at once and never visits some of them.
	Trace func(f *ir.Func, pc int)
	// Obs, when non-nil, receives aggregate execution counters when a
	// run completes. Recording happens once per run (a handful of atomic
	// adds), never inside the dispatch loop, so the fast path is
	// untouched.
	Obs *obs.Registry
	// Engine selects the execution engine: EngineBytecode (the default
	// when empty) or EngineSwitch.
	Engine string
	// ProfileMode selects which profiling counters a run increments:
	// ProfileFull (the default when empty), ProfileMinimal, or
	// ProfileSampled. See profmode.go.
	ProfileMode string
	// SampleRate is the 1-in-k event sampling rate for ProfileSampled
	// (0 = DefaultSampleRate, 1 = count everything). Ignored by the other
	// modes.
	SampleRate int
}

// compiledFunc holds the switch engine's per-function tables. All name
// and label resolution happens once at load time so that its dispatch
// loop never consults a map: branch targets become pc indices, and static
// call sites become direct callee pointers. The bytecode engine builds
// neither table; its translator resolves both itself (translate.go).
type compiledFunc struct {
	fn *ir.Func
	id int // function table index; address = FuncBase + id*FuncStride
	// branchPC[pc] is the resolved jump target for an OpJump/OpBr at pc.
	branchPC []int32
	// callees[pc] is the resolved callee for an OpCall at pc.
	callees []callTarget
}

// callTarget is a load-time-resolved static callee: either a user
// function (user != nil) or an external implementation.
type callTarget struct {
	user *compiledFunc
	ext  ExternImpl
	id   int // dense function id (extern ids follow user function ids)
}

// Machine executes one IL module against an Env, producing RunStats.
// A Machine is not safe for concurrent use; run one Machine per
// goroutine. A single Machine may Run many times — globals, frames, and
// counters are reset between runs — so profiling reuses one Machine per
// worker instead of rebuilding tables per run. On the bytecode engine a
// function is translated on its first activation and kept for the
// Machine's later runs, so a run pays only for the code it executes. The
// stack and heap are not the Machine's own: each run borrows a zeroed
// pair from a shared pool and returns it on exit, so even a Machine built
// for a single run allocates no segments in steady state.
type Machine struct {
	Mod *ir.Module
	Env *Env

	mem *Memory

	// ids maps a name to the dense function id a direct call to it
	// resolves to: user functions first (the last of a duplicated name),
	// then declared externs no user function shadows (the first of a
	// duplicated name), then externs that calls name without declaring.
	// Ids below nAddr — user functions and declared externs — have the
	// runtime address FuncBase + id*FuncStride. impls holds each
	// extern's implementation by dense id (nil for user functions).
	ids   map[string]int32
	nAddr int
	impls []ExternImpl

	// globalAddr and globalsLen are the globals layout (layoutGlobals),
	// shared by the translator and every run's globals image.
	globalAddr map[string]int64
	globalsLen int

	// engine is the resolved Options.Engine. funcs (switch engine) or
	// bfuncs (bytecode engine) holds one entry per user function, indexed
	// by dense id; a bfuncs entry is translated on its first activation
	// (pushBC). ptrTargets is the bytecode engine's function-pointer
	// table over user functions and declared externs.
	engine     string
	funcs      []compiledFunc
	bfuncs     []bcFunc
	ptrTargets []ptrTarget

	// funcNames maps a dense function id (user functions first, then
	// externs) to its name; funcCounts and siteCounts are the per-run
	// dense counters folded into RunStats at Run exit.
	funcNames  []string
	funcCounts []int64
	siteCounts []int64

	// Per-target counters for pointer call sites: ptrSiteIdx maps a
	// call-site id to a compact pointer-site index (-1 for direct sites),
	// ptrSiteIDs is the reverse map, and ptrTargetCounts is the flat
	// [site index][dense function id] histogram. These are exact in every
	// profile mode — never sampled — because devirtualization
	// needs true dominance fractions and minimal-mode profiles must stay
	// byte-identical to full-mode ones. They are excluded from
	// ProfileEvents.
	ptrSiteIdx      []int32
	ptrSiteIDs      []int32
	ptrTargetCounts []int64
	ptrStride       int

	// Profile-mode state (profmode.go). profileMode is the resolved
	// Options.ProfileMode; sampleK the resolved 1-in-k rate (1 = exact).
	// countEntries is set in full mode, the only mode that counts
	// function entries as they happen; in the others directSites lists
	// each direct call site with its callee, whose entry count
	// finalizeCounts derives from the site's. siteSkip/ptrSkip are the
	// deterministic sampling skip counters; rootEntered records whether
	// the run's initial push succeeded (the one entry per run no call
	// site witnesses).
	profileMode  string
	sampleK      int64
	countEntries bool
	directSites  []directSite
	siteSkip     []int64
	ptrSkip      []int64
	rootEntered  bool

	// frames/bframes are the pooled activation-record stacks, reused
	// across calls and runs so the hot loop performs no per-call
	// allocation.
	frames  []frame
	bframes []bcFrame
	argBuf  []int64

	// fmtBuf and pieceBuf are the pooled printf formatting buffers.
	fmtBuf   []byte
	pieceBuf []byte

	opts Options
}

// NewMachine loads the module. The same machine may Run multiple times,
// with a fresh environment installed by SetEnv; every Run starts from the
// module's initial globals and a zero stack and heap lent for that run.
//
// Loading does only module-wide work: function ids and addresses, extern
// resolution, counter sizing (with each direct site's callee in the
// modes that count no entries) and the globals layout, in one scan of
// the code. Every error a module can cause at load is reported here. The
// bytecode engine translates each function when a run first enters it
// and keeps the translation for the machine's later runs; the switch
// engine resolves every function here. Nothing is shared between
// machines, and a machine reads mod again at every run, so it must not
// outlive a change to mod: build a new Machine after editing the module.
func NewMachine(mod *ir.Module, env *Env, opts Options) (*Machine, error) {
	if opts.StackSize == 0 {
		opts.StackSize = DefaultStackSize
	}
	if opts.HeapSize == 0 {
		opts.HeapSize = DefaultHeapSize
	}
	if opts.MaxIL == 0 {
		opts.MaxIL = 1 << 40
	}
	nf := len(mod.Funcs)
	m := &Machine{
		Mod:       mod,
		Env:       env,
		ids:       make(map[string]int32, nf+len(mod.Externs)),
		nAddr:     nf + len(mod.Externs),
		impls:     make([]ExternImpl, nf, nf+len(mod.Externs)),
		funcNames: make([]string, 0, nf+len(mod.Externs)),
		opts:      opts,
	}
	for id, f := range mod.Funcs {
		m.ids[f.Name] = int32(id)
		m.funcNames = append(m.funcNames, f.Name)
	}
	for _, e := range mod.Externs {
		impl, ok := Externs[e.Name]
		if !ok {
			return nil, fmt.Errorf("extern function %q has no implementation", e.Name)
		}
		if _, shadowed := m.ids[e.Name]; !shadowed {
			m.ids[e.Name] = int32(len(m.funcNames))
		}
		m.funcNames = append(m.funcNames, e.Name)
		m.impls = append(m.impls, impl)
	}

	if err := m.initProfileMode(); err != nil {
		return nil, err
	}

	// Size the dense counters in one scan of the code: the largest
	// call-site id, the pointer call sites in order of first appearance,
	// and the externs calls name without declaring, which resolve by
	// name only: they get a counter slot but no runtime address. When
	// entries go uncounted, the scan also collects each direct site that
	// resolves, with its callee, in a pooled buffer.
	maxCallID := 0
	var ptrSites []int32
	var direct *[]directSite
	if !m.countEntries {
		if direct, _ = siteScratch.Get().(*[]directSite); direct == nil {
			direct = new([]directSite)
		}
	}
	for _, f := range mod.Funcs {
		for pc := range f.Code {
			in := &f.Code[pc]
			switch in.Op {
			case ir.OpCall:
				id, ok := m.ids[in.Sym]
				if !ok {
					if impl, known := Externs[in.Sym]; known {
						id, ok = int32(len(m.funcNames)), true
						m.ids[in.Sym] = id
						m.funcNames = append(m.funcNames, in.Sym)
						m.impls = append(m.impls, impl)
					}
				}
				if ok && direct != nil {
					*direct = append(*direct, directSite{int32(in.CallID), id})
				}
			case ir.OpCallPtr:
				ptrSites = append(ptrSites, int32(in.CallID))
			default:
				continue
			}
			maxCallID = max(maxCallID, in.CallID)
		}
	}
	if direct != nil {
		m.directSites = slices.Clone(*direct)
		*direct = (*direct)[:0]
		siteScratch.Put(direct)
	}
	m.funcCounts = make([]int64, len(m.funcNames))
	m.siteCounts = make([]int64, maxCallID+1)
	m.ptrSiteIdx = make([]int32, maxCallID+1)
	for i := range m.ptrSiteIdx {
		m.ptrSiteIdx[i] = -1
	}
	m.ptrSiteIDs = ptrSites[:0]
	for _, s := range ptrSites {
		if m.ptrSiteIdx[s] < 0 {
			m.ptrSiteIdx[s] = int32(len(m.ptrSiteIDs))
			m.ptrSiteIDs = append(m.ptrSiteIDs, s)
		}
	}
	m.ptrStride = len(m.funcCounts)
	m.ptrTargetCounts = make([]int64, len(m.ptrSiteIDs)*m.ptrStride)
	if m.sampleK > 1 {
		m.siteSkip = make([]int64, len(m.siteCounts))
		m.ptrSkip = make([]int64, len(m.funcCounts))
	}
	m.globalAddr, m.globalsLen = layoutGlobals(mod)

	switch opts.Engine {
	case "", EngineBytecode:
		m.engine = EngineBytecode
		if opts.Trace != nil {
			m.engine = EngineSwitch
		}
	case EngineSwitch:
		m.engine = EngineSwitch
	default:
		return nil, fmt.Errorf("unknown interpreter engine %q (want %q or %q)",
			opts.Engine, EngineBytecode, EngineSwitch)
	}
	if m.engine == EngineSwitch {
		m.resolve()
		return m, nil
	}
	m.bfuncs = make([]bcFunc, nf)
	m.ptrTargets = make([]ptrTarget, m.nAddr)
	for id, f := range mod.Funcs {
		m.bfuncs[id] = bcFunc{fn: f, id: id}
		m.ptrTargets[id].user = &m.bfuncs[id]
	}
	for id := nf; id < m.nAddr; id++ {
		m.ptrTargets[id] = ptrTarget{ext: m.impls[id], id: int32(id)}
	}
	return m, nil
}

// resolve builds the switch engine's tables for every function: branch
// labels become pc indices and direct calls become callees.
func (m *Machine) resolve() {
	m.funcs = make([]compiledFunc, len(m.Mod.Funcs))
	for id, f := range m.Mod.Funcs {
		cf := &m.funcs[id]
		cf.fn, cf.id = f, id
		labels := f.LabelIndex()
		cf.branchPC = make([]int32, len(f.Code))
		cf.callees = make([]callTarget, len(f.Code))
		for pc := range f.Code {
			in := &f.Code[pc]
			switch in.Op {
			case ir.OpJump, ir.OpBr:
				cf.branchPC[pc] = int32(labels[in.Label])
			case ir.OpCall:
				if id, ok := m.ids[in.Sym]; ok && int(id) < len(m.funcs) {
					cf.callees[pc] = callTarget{user: &m.funcs[id]}
				} else if ok {
					cf.callees[pc] = callTarget{ext: m.impls[id], id: int(id)}
				}
			}
		}
	}
}

// funcID maps a function-pointer value to the dense id of the user
// function or declared extern at that address, or -1.
func (m *Machine) funcID(addr int64) int {
	rel := addr - FuncBase
	if rel < 0 || rel%FuncStride != 0 || rel/FuncStride >= int64(m.nAddr) {
		return -1
	}
	return int(rel / FuncStride)
}

// Engine reports which execution engine the machine resolved to.
func (m *Machine) Engine() string { return m.engine }

// SetEnv installs a fresh environment for the next Run, letting one
// machine serve many runs without re-translating the module.
func (m *Machine) SetEnv(env *Env) { m.Env = env }

// FuncAddr returns the runtime address of a function (defined or extern),
// via the name table precomputed at load time.
func (m *Machine) FuncAddr(name string) (int64, bool) {
	id, ok := m.ids[name]
	if !ok || int(id) >= m.nAddr {
		return 0, false
	}
	return FuncBase + int64(id)*FuncStride, true
}

// Run executes main() and returns the collected statistics. A program
// calling exit() terminates normally with that exit code.
func (m *Machine) Run() (*profile.RunStats, error) {
	st := profile.NewRunStats()
	if err := m.RunInto(st); err != nil {
		return st, err
	}
	return st, nil
}

// RunInto is Run writing into a caller-owned RunStats, which it resets
// first. Reusing the stats (its maps keep their buckets) lets steady-
// state benchmark loops run without a single allocation.
func (m *Machine) RunInto(st *profile.RunStats) error {
	*st = profile.RunStats{SiteCounts: st.SiteCounts, FuncCounts: st.FuncCounts, PtrTargets: st.PtrTargets}
	clear(st.SiteCounts)
	clear(st.FuncCounts)
	for _, targets := range st.PtrTargets {
		clear(targets)
	}

	mainID, ok := m.ids["main"]
	if !ok || int(mainID) >= len(m.Mod.Funcs) {
		return fmt.Errorf("module %s has no main function", m.Mod.Name)
	}
	if err := m.loadGlobals(); err != nil {
		return err
	}
	m.mem.borrow(m.opts.StackSize, m.opts.HeapSize)
	defer m.mem.giveBack()
	for i := range m.funcCounts {
		m.funcCounts[i] = 0
	}
	for i := range m.siteCounts {
		m.siteCounts[i] = 0
	}
	for i := range m.ptrTargetCounts {
		m.ptrTargetCounts[i] = 0
	}
	m.resetProfileCounters()

	var code int64
	var err error
	if m.engine == EngineBytecode {
		code, err = m.execBC(&m.bfuncs[mainID], nil, st)
	} else {
		code, err = m.exec(&m.funcs[mainID], nil, st)
	}
	m.finalizeCounts(st)
	m.foldCounts(st)
	defer m.recordRun(st)
	// A clean run unwinds every activation: one return per counted call,
	// plus main's own ret (its invocation is not a counted call site).
	// Anything else — exit() or a fault with frames still pending — is a
	// truncated run, flagged so merged profiles can report how many went
	// into the averages.
	if st.Returns != st.Calls+1 {
		st.Truncated = 1
	}
	if err != nil {
		if ex, isExit := err.(*exitError); isExit {
			st.ExitCode = ex.code
			return nil
		}
		return err
	}
	st.ExitCode = code
	return nil
}

// recordRun publishes one run's aggregate counters to the attached
// registry (no-op without one).
func (m *Machine) recordRun(st *profile.RunStats) {
	reg := m.opts.Obs
	if reg == nil {
		return
	}
	reg.Counter("interp_runs_total", "Interpreter runs completed.").Inc()
	reg.Counter("interp_engine_runs_total", "Interpreter runs completed, by engine.",
		"engine", m.engine).Inc()
	reg.Counter("interp_il_executed_total", "Executed IL instructions.").Add(st.IL)
	reg.Counter("interp_calls_total", "Dynamic calls executed.").Add(st.Calls)
	reg.Counter("interp_extern_calls_total", "Dynamic calls to external routines.").Add(st.ExternCalls)
	reg.Counter("interp_ptr_calls_total", "Dynamic calls through pointers.").Add(st.PtrCalls)
	reg.Counter("interp_truncated_runs_total", "Runs ended by exit() without unwinding.").Add(st.Truncated)
	reg.Counter("profile_events_counted_total", "Profiling counter increments performed, by profile mode.",
		"mode", m.profileMode).Add(st.ProfileEvents)
	reg.Gauge("interp_max_stack_bytes", "High-water control-stack bytes across runs.").SetMax(float64(st.MaxStack))
}

// foldCounts folds the dense per-run counters back into the map-shaped
// RunStats the profile package exposes.
func (m *Machine) foldCounts(st *profile.RunStats) {
	for id, n := range m.funcCounts {
		if n != 0 {
			st.FuncCounts[m.funcNames[id]] += n
		}
	}
	for sid, n := range m.siteCounts {
		if n != 0 {
			st.SiteCounts[sid] += n
		}
	}
	for pi, sid := range m.ptrSiteIDs {
		row := m.ptrTargetCounts[pi*m.ptrStride : (pi+1)*m.ptrStride]
		for tid, n := range row {
			if n != 0 {
				st.AddPtrTarget(int(sid), m.funcNames[tid], n)
			}
		}
	}
}

// bumpPtrTarget counts one resolved target at a pointer call site. Exact
// in every profile mode (see the field comment on ptrTargetCounts).
func (m *Machine) bumpPtrTarget(site, tid int) {
	if pi := m.ptrSiteIdx[site]; pi >= 0 {
		m.ptrTargetCounts[int(pi)*m.ptrStride+tid]++
	}
}

// frame is one activation record. Frames live in the machine's pooled
// stack; regs slices are recycled between activations at the same depth.
type frame struct {
	cf     *compiledFunc
	base   int64 // address of the frame in the stack segment
	regs   []int64
	pc     int
	retDst ir.Reg // caller register receiving the return value
}

// val resolves an operand against the frame's register file.
func (f *frame) val(v ir.Value) int64 {
	if v.Kind == ir.VKConst {
		return v.Imm
	}
	return f.regs[v.Reg]
}

// push activates cf at depth, reusing pooled frame storage. It returns
// the new top-of-stack frame.
func (m *Machine) push(depth int, cf *compiledFunc, callArgs []int64, retDst ir.Reg, sp *int64, st *profile.RunStats) (*frame, error) {
	base := (*sp + 15) &^ 15
	if base+int64(cf.fn.FrameSize) > int64(m.mem.StackSize()) {
		return nil, fmt.Errorf("control stack overflow entering %s (frame %d bytes, used %d of %d)",
			cf.fn.Name, cf.fn.FrameSize, base, m.mem.StackSize())
	}
	if depth == len(m.frames) {
		m.frames = append(m.frames, frame{})
	}
	f := &m.frames[depth]
	f.cf = cf
	f.base = StackBase + base
	f.pc = 0
	f.retDst = retDst
	if cap(f.regs) >= cf.fn.NumRegs {
		f.regs = f.regs[:cf.fn.NumRegs]
		for i := range f.regs {
			f.regs[i] = 0
		}
	} else {
		f.regs = make([]int64, cf.fn.NumRegs)
	}
	// Zero the frame (locals start zeroed for determinism) and store
	// incoming arguments into the parameter slots.
	buf, off, _ := m.mem.seg(f.base, int64(cf.fn.FrameSize))
	for i := int64(0); i < int64(cf.fn.FrameSize); i++ {
		buf[off+i] = 0
	}
	for i := 0; i < cf.fn.NumParams && i < len(callArgs); i++ {
		slot := cf.fn.Slots[i]
		if err := m.mem.Store(f.base+int64(slot.Offset), sizeToAccess(slot.Size), callArgs[i]); err != nil {
			return nil, err
		}
	}
	*sp = base + int64(cf.fn.FrameSize)
	if *sp > st.MaxStack {
		st.MaxStack = *sp
	}
	if m.countEntries {
		m.funcCounts[cf.id]++
	}
	return f, nil
}

// exec runs entry(args) to completion using an explicit frame stack so
// that deep MiniC recursion cannot exhaust the Go stack.
func (m *Machine) exec(entry *compiledFunc, args []int64, st *profile.RunStats) (int64, error) {
	var sp int64 // stack-segment high-water offset
	depth := 0

	f, err := m.push(depth, entry, args, ir.NoReg, &sp, st)
	if err != nil {
		return 0, err
	}
	m.rootEntered = true
	depth++

	maxIL := m.opts.MaxIL
	trace := m.opts.Trace

	var retVal int64
	for depth > 0 {
		code := f.cf.fn.Code
		if f.pc >= len(code) {
			return 0, &RuntimeError{Func: f.cf.fn.Name, Msg: "fell off the end of the function"}
		}
		in := &code[f.pc]

		if in.Op != ir.OpLabel {
			st.IL++
			if st.IL > maxIL {
				return 0, &RuntimeError{Func: f.cf.fn.Name, Pos: in.Pos,
					Msg: fmt.Sprintf("instruction budget exceeded (%d)", maxIL)}
			}
			if trace != nil {
				trace(f.cf.fn, f.pc)
			}
		}

		switch in.Op {
		case ir.OpLabel, ir.OpNop:
			f.pc++
		case ir.OpConst:
			f.regs[in.Dst] = in.A.Imm
			f.pc++
		case ir.OpMov:
			f.regs[in.Dst] = f.val(in.A)
			f.pc++
		case ir.OpNeg:
			f.regs[in.Dst] = -f.val(in.A)
			f.pc++
		case ir.OpNot:
			f.regs[in.Dst] = ^f.val(in.A)
			f.pc++
		case ir.OpAdd, ir.OpSub, ir.OpMul, ir.OpDiv, ir.OpRem,
			ir.OpAnd, ir.OpOr, ir.OpXor, ir.OpShl, ir.OpShr,
			ir.OpEq, ir.OpNe, ir.OpLt, ir.OpLe, ir.OpGt, ir.OpGe:
			a, b := f.val(in.A), f.val(in.B)
			if (in.Op == ir.OpDiv || in.Op == ir.OpRem) && b == 0 {
				return 0, &RuntimeError{Func: f.cf.fn.Name, Pos: in.Pos, Msg: "division by zero"}
			}
			f.regs[in.Dst] = evalBinary(in.Op, a, b)
			f.pc++
		case ir.OpLoad:
			v, err := m.mem.Load(f.val(in.A), in.Size)
			if err != nil {
				return 0, &RuntimeError{Func: f.cf.fn.Name, Pos: in.Pos, Msg: err.Error()}
			}
			f.regs[in.Dst] = v
			f.pc++
		case ir.OpStore:
			if err := m.mem.Store(f.val(in.A), in.Size, f.val(in.B)); err != nil {
				return 0, &RuntimeError{Func: f.cf.fn.Name, Pos: in.Pos, Msg: err.Error()}
			}
			f.pc++
		case ir.OpAddrG:
			a, ok := m.globalAddr[in.Sym]
			if !ok {
				return 0, &RuntimeError{Func: f.cf.fn.Name, Pos: in.Pos, Msg: "unknown global " + in.Sym}
			}
			f.regs[in.Dst] = a
			f.pc++
		case ir.OpAddrL:
			slot := f.cf.fn.Slots[in.A.Imm]
			f.regs[in.Dst] = f.base + int64(slot.Offset)
			f.pc++
		case ir.OpAddrF:
			a, ok := m.FuncAddr(in.Sym)
			if !ok {
				return 0, &RuntimeError{Func: f.cf.fn.Name, Pos: in.Pos, Msg: "unknown function " + in.Sym}
			}
			f.regs[in.Dst] = a
			f.pc++
		case ir.OpJump:
			st.Control++
			f.pc = int(f.cf.branchPC[f.pc])
		case ir.OpBr:
			st.Control++
			if f.val(in.A) != 0 {
				f.pc = int(f.cf.branchPC[f.pc])
			} else {
				f.pc++
			}
		case ir.OpCall:
			st.Calls++
			m.bumpSite(in.CallID)
			callArgs := m.scratchArgs(len(in.Args))
			for i, a := range in.Args {
				callArgs[i] = f.val(a)
			}
			ct := &f.cf.callees[f.pc]
			if ct.user != nil {
				f.pc++ // resume after the call on return
				nf, err := m.push(depth, ct.user, callArgs, in.Dst, &sp, st)
				if err != nil {
					return 0, &RuntimeError{Func: f.cf.fn.Name, Pos: in.Pos, Msg: err.Error()}
				}
				f = nf
				depth++
				continue
			}
			// External function.
			if ct.ext == nil {
				return 0, &RuntimeError{Func: f.cf.fn.Name, Pos: in.Pos, Msg: "unimplemented extern " + in.Sym}
			}
			st.ExternCalls++
			if m.countEntries {
				m.funcCounts[ct.id]++
			}
			rv, err := ct.ext(m, callArgs)
			if err != nil {
				if _, isExit := err.(*exitError); isExit {
					return 0, err
				}
				return 0, &RuntimeError{Func: f.cf.fn.Name, Pos: in.Pos, Msg: err.Error()}
			}
			st.Returns++
			if in.Dst != ir.NoReg {
				f.regs[in.Dst] = rv
			}
			f.pc++
		case ir.OpCallPtr:
			st.Calls++
			st.PtrCalls++
			m.bumpSite(in.CallID)
			target := f.val(in.A)
			callArgs := m.scratchArgs(len(in.Args))
			for i, a := range in.Args {
				callArgs[i] = f.val(a)
			}
			id := m.funcID(target)
			if id >= 0 && id < len(m.funcs) {
				callee := &m.funcs[id]
				f.pc++
				nf, err := m.push(depth, callee, callArgs, in.Dst, &sp, st)
				if err != nil {
					return 0, &RuntimeError{Func: f.cf.fn.Name, Pos: in.Pos, Msg: err.Error()}
				}
				if !m.countEntries {
					m.bumpPtrEntry(id)
				}
				m.bumpPtrTarget(in.CallID, id)
				f = nf
				depth++
				continue
			}
			if id >= 0 {
				st.ExternCalls++
				m.bumpPtrEntry(id)
				m.bumpPtrTarget(in.CallID, id)
				rv, err := m.impls[id](m, callArgs)
				if err != nil {
					if _, isExit := err.(*exitError); isExit {
						return 0, err
					}
					return 0, &RuntimeError{Func: f.cf.fn.Name, Pos: in.Pos, Msg: err.Error()}
				}
				st.Returns++
				if in.Dst != ir.NoReg {
					f.regs[in.Dst] = rv
				}
				f.pc++
				continue
			}
			return 0, &RuntimeError{Func: f.cf.fn.Name, Pos: in.Pos,
				Msg: fmt.Sprintf("call through invalid function pointer %#x", target)}
		case ir.OpRet:
			st.Returns++
			if in.A.Kind != ir.VKNone {
				retVal = f.val(in.A)
			} else {
				retVal = 0
			}
			// Pop the frame and deliver the value.
			depth--
			sp = 0
			if depth > 0 {
				retDst := f.retDst
				f = &m.frames[depth-1]
				sp = f.base - StackBase + int64(f.cf.fn.FrameSize)
				if retDst != ir.NoReg {
					f.regs[retDst] = retVal
				}
			}
		default:
			return 0, &RuntimeError{Func: f.cf.fn.Name, Pos: in.Pos,
				Msg: fmt.Sprintf("unhandled opcode %s", in.Op)}
		}
	}
	return retVal, nil
}

// scratchArgs returns the reused argument buffer, grown to n. Arguments
// are consumed before the next call evaluates its own (push stores them
// into parameter slots; externs only read during the call), so a single
// buffer serves every call site.
func (m *Machine) scratchArgs(n int) []int64 {
	if cap(m.argBuf) < n {
		m.argBuf = make([]int64, n, n+8)
	}
	return m.argBuf[:n]
}

func sizeToAccess(slotSize int) int {
	if slotSize == 1 {
		return 1
	}
	return 8
}

func evalBinary(op ir.Op, a, b int64) int64 {
	switch op {
	case ir.OpAdd:
		return a + b
	case ir.OpSub:
		return a - b
	case ir.OpMul:
		return a * b
	case ir.OpDiv:
		return a / b
	case ir.OpRem:
		return a % b
	case ir.OpAnd:
		return a & b
	case ir.OpOr:
		return a | b
	case ir.OpXor:
		return a ^ b
	case ir.OpShl:
		return a << uint64(b&63)
	case ir.OpShr:
		return int64(uint64(a) >> uint64(b&63))
	case ir.OpEq:
		return b2i(a == b)
	case ir.OpNe:
		return b2i(a != b)
	case ir.OpLt:
		return b2i(a < b)
	case ir.OpLe:
		return b2i(a <= b)
	case ir.OpGt:
		return b2i(a > b)
	case ir.OpGe:
		return b2i(a >= b)
	}
	return 0
}

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
