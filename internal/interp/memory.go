// Package interp executes IL modules and collects the dynamic profiles
// that drive inline expansion. It provides the substrate the paper ran
// on natively: a byte-addressable memory (globals, control stack, heap),
// a call stack with per-frame locals and virtual registers, and a library
// of external functions (the paper's un-inlinable "$$$" callees) backed by
// an in-memory file system.
package interp

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"

	"inlinec/internal/ir"
)

// Address-space layout. Segments are disjoint so that stray pointers are
// detected rather than silently corrupting another segment.
const (
	GlobalsBase int64 = 0x0001_0000
	StackBase   int64 = 0x1000_0000
	HeapBase    int64 = 0x4000_0000
	FuncBase    int64 = 0x7000_0000

	// FuncStride spaces function addresses so that off-by-small-offset
	// pointer bugs don't alias another function.
	FuncStride int64 = 16
)

// DefaultStackSize is the control-stack capacity in bytes. Exceeding it is
// the paper's "control stack overflow" hazard.
const DefaultStackSize = 4 << 20

// DefaultHeapSize caps the bump allocator.
const DefaultHeapSize = 64 << 20

// MemError is a memory-access fault.
type MemError struct {
	Addr int64
	Op   string
}

func (e *MemError) Error() string {
	return fmt.Sprintf("memory fault: %s at address %#x", e.Op, e.Addr)
}

// Memory is the flat data memory of a running program. The globals
// segment belongs to the Memory; the stack and heap are lent to it for
// the length of one run (see borrow) and are nil between runs.
type Memory struct {
	globals []byte
	stack   []byte
	heap    []byte
	heapTop int64 // bump pointer (offset into heap)

	// dirtyStack and dirtyHeap are high-water marks (exclusive segment
	// offsets) of bytes that may hold non-zero data, so giveBack re-zeroes
	// only what a run actually touched. Frame zeroing and reads never
	// raise them; every store path does.
	dirtyStack int64
	dirtyHeap  int64

	// loan is the stack and heap pair lent to the current run. It stays
	// set after the run, so the next borrow can take the same pair back
	// if the pool comes up empty and nobody else holds it.
	loan *segments
}

// segments is one stack and heap pair, all zero whenever it is not lent.
// Lending pairs from segPool instead of allocating them per Machine
// means a run costs only the bytes it dirties: Program.Run builds a new
// Machine for every run, and a fresh pair is 68 MB of allocation and
// zeroing at the default sizes.
type segments struct {
	stack, heap []byte
	// lent is set while a run holds the pair. The pool may still list a
	// pair its last borrower took back directly, so every taker claims
	// the pair by flipping lent and passes over a pair already claimed.
	lent atomic.Bool
}

var segPool sync.Pool

// takeSegments claims an all-zero pair of the given sizes: from the pool
// if it has one, else prev (the caller's previous pair) if it is free,
// else a fresh one. The prev fallback keeps a warm Machine from ever
// allocating: sync.Pool may empty itself at any garbage collection, and
// under the race detector it drops a random quarter of all Puts.
func takeSegments(prev *segments, stackSize, heapSize int) *segments {
	s, _ := segPool.Get().(*segments)
	for s != nil && !s.lent.CompareAndSwap(false, true) {
		s, _ = segPool.Get().(*segments)
	}
	if s == nil && prev != nil && prev.lent.CompareAndSwap(false, true) {
		s = prev
	}
	if s == nil || len(s.stack) != stackSize || len(s.heap) != heapSize {
		s = &segments{stack: make([]byte, stackSize), heap: make([]byte, heapSize)}
		s.lent.Store(true)
	}
	return s
}

// layoutGlobals computes the load address of every global and the total
// segment size. The layout depends only on the module, so NewMachine
// computes it once: the bytecode translator resolves global addresses
// from it before any Memory exists, and every run's globals image is
// written from it.
func layoutGlobals(mod *ir.Module) (map[string]int64, int) {
	addrs := make(map[string]int64, len(mod.Globals))
	off := 0
	for _, g := range mod.Globals {
		a := g.Align
		if a <= 0 {
			a = 1
		}
		off = (off + a - 1) / a * a
		addrs[g.Name] = GlobalsBase + int64(off)
		off += g.Size
	}
	return addrs, off
}

// loadGlobals puts the module's initial globals image in the machine's
// globals segment, allocating the segment on the first run: zeros, then
// each global's Init bytes, then its relocations. Later runs rewrite the
// image from the module instead of keeping a copy of it.
func (m *Machine) loadGlobals() error {
	mod := m.Mod
	for name := range mod.ExternGlobals {
		if mod.Global(name) == nil {
			return fmt.Errorf("undefined symbol %q: extern variable never defined (link the defining unit)", name)
		}
	}
	if m.mem == nil {
		m.mem = &Memory{globals: make([]byte, m.globalsLen)}
	} else {
		clear(m.mem.globals)
	}
	globals := m.mem.globals
	for _, g := range mod.Globals {
		base := m.globalAddr[g.Name] - GlobalsBase
		copy(globals[base:], g.Init)
		for _, r := range g.Relocs {
			var target int64
			if r.IsFunc {
				fa, ok := m.FuncAddr(r.Sym)
				if !ok {
					return fmt.Errorf("reloc in %s: unknown function %q", g.Name, r.Sym)
				}
				target = fa
			} else {
				ga, ok := m.globalAddr[r.Sym]
				if !ok {
					return fmt.Errorf("reloc in %s: unknown global %q", g.Name, r.Sym)
				}
				target = ga
			}
			binary.LittleEndian.PutUint64(globals[base+int64(r.Offset):], uint64(target+r.Addend))
		}
	}
	return nil
}

// borrow puts memory in its freshly loaded state for one run: an
// all-zero stack and heap of the given sizes are lent by takeSegments
// (loadGlobals has already restored the globals). Every borrow must be
// paired with a giveBack once the run is over, on every exit path.
func (m *Memory) borrow(stackSize, heapSize int) {
	m.loan = takeSegments(m.loan, stackSize, heapSize)
	m.stack, m.heap = m.loan.stack, m.loan.heap
	m.heapTop = 0
}

// giveBack re-zeroes the stack and heap extents the run may have stored
// to, releasing the pair all-zero, and returns it to the pool.
func (m *Memory) giveBack() {
	clear(m.stack[:m.dirtyStack])
	clear(m.heap[:m.dirtyHeap])
	m.dirtyStack, m.dirtyHeap = 0, 0
	m.stack, m.heap = nil, nil
	m.loan.lent.Store(false)
	segPool.Put(m.loan)
}

// dirty widens the store high-water mark for the segment containing
// addr. Globals need no tracking: loadGlobals rewrites them wholesale.
func (m *Memory) dirty(addr, n int64) {
	switch {
	case addr >= HeapBase:
		if end := addr - HeapBase + n; end > m.dirtyHeap {
			m.dirtyHeap = end
		}
	case addr >= StackBase:
		if end := addr - StackBase + n; end > m.dirtyStack {
			m.dirtyStack = end
		}
	}
}

// seg resolves an n-byte access at addr to its backing slice and offset.
// The bounds compare as off <= len-n so that no n, however large, can
// overflow them; a negative n is never a valid access.
func (m *Memory) seg(addr int64, n int64) ([]byte, int64, bool) {
	if n < 0 {
		return nil, 0, false
	}
	switch {
	case addr >= GlobalsBase && addr-GlobalsBase <= int64(len(m.globals))-n:
		return m.globals, addr - GlobalsBase, true
	case addr >= StackBase && addr-StackBase <= int64(len(m.stack))-n:
		return m.stack, addr - StackBase, true
	case addr >= HeapBase && addr-HeapBase <= int64(len(m.heap))-n:
		return m.heap, addr - HeapBase, true
	}
	return nil, 0, false
}

// Load reads size bytes (1 or 8) at addr; byte loads zero-extend.
func (m *Memory) Load(addr int64, size int) (int64, error) {
	buf, off, ok := m.seg(addr, int64(size))
	if !ok {
		return 0, &MemError{Addr: addr, Op: fmt.Sprintf("load%d", size)}
	}
	if size == 1 {
		return int64(buf[off]), nil
	}
	return int64(binary.LittleEndian.Uint64(buf[off:])), nil
}

// Store writes size bytes (1 or 8) at addr.
func (m *Memory) Store(addr int64, size int, v int64) error {
	buf, off, ok := m.seg(addr, int64(size))
	if !ok {
		return &MemError{Addr: addr, Op: fmt.Sprintf("store%d", size)}
	}
	m.dirty(addr, int64(size))
	if size == 1 {
		buf[off] = byte(v)
		return nil
	}
	binary.LittleEndian.PutUint64(buf[off:], uint64(v))
	return nil
}

// Bytes returns n bytes starting at addr for direct inspection. Callers
// may write through the returned slice, so the extent counts as dirty.
func (m *Memory) Bytes(addr, n int64) ([]byte, error) {
	buf, off, ok := m.seg(addr, n)
	if !ok {
		return nil, &MemError{Addr: addr, Op: fmt.Sprintf("access %d bytes", n)}
	}
	m.dirty(addr, n)
	return buf[off : off+n], nil
}

// cstrBytes returns a read-only view of the NUL-terminated string at
// addr, without the terminator and without copying (capped at 1 MiB).
// The view aliases program memory, so it is only valid until the next
// store — callers must finish reading before the program runs again.
func (m *Memory) cstrBytes(addr int64) ([]byte, error) {
	const maxLen = 1 << 20
	buf, off, ok := m.seg(addr, 1)
	if !ok {
		return nil, &MemError{Addr: addr, Op: "load1"}
	}
	// The string can extend at most to the end of its segment; scanning
	// the view byte-for-byte matches what repeated 1-byte loads would see.
	seg := buf[off:]
	limit := int64(len(seg))
	if limit > maxLen {
		limit = maxLen
	}
	for i := int64(0); i < limit; i++ {
		if seg[i] == 0 {
			return seg[:i], nil
		}
	}
	if limit == maxLen {
		return nil, fmt.Errorf("unterminated string at %#x", addr)
	}
	// Ran off the end of the segment before a NUL: the byte-at-a-time
	// reader would fault loading the first out-of-segment byte.
	return nil, &MemError{Addr: addr + limit, Op: "load1"}
}

// CString reads a NUL-terminated string at addr (capped at 1 MiB).
func (m *Memory) CString(addr int64) (string, error) {
	b, err := m.cstrBytes(addr)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// WriteBytes copies data into memory at addr.
func (m *Memory) WriteBytes(addr int64, data []byte) error {
	buf, off, ok := m.seg(addr, int64(len(data)))
	if !ok {
		return &MemError{Addr: addr, Op: fmt.Sprintf("write %d bytes", len(data))}
	}
	m.dirty(addr, int64(len(data)))
	copy(buf[off:], data)
	return nil
}

// Alloc carves n bytes from the heap (16-byte aligned); returns 0 when
// the heap cannot hold n more bytes, matching malloc's NULL convention.
// A zero or negative n carves one byte.
func (m *Memory) Alloc(n int64) int64 {
	if n <= 0 {
		n = 1
	}
	top := (m.heapTop + 15) &^ 15
	if n > int64(len(m.heap))-top {
		return 0
	}
	m.heapTop = top + n
	return HeapBase + top
}

// StackSize returns the stack capacity in bytes.
func (m *Memory) StackSize() int { return len(m.stack) }
