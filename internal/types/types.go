// Package types implements the MiniC type system: char, int, void,
// pointers, fixed-size arrays, structs, enums (as int), and function types.
// Sizes follow a simple 64-bit model: char is 1 byte, int/long/pointers are
// 8 bytes. Struct fields are laid out in declaration order with natural
// alignment.
package types

import (
	"fmt"
	"strings"
)

// Sizes of the primitive types in bytes.
const (
	CharSize = 1
	IntSize  = 8
	PtrSize  = 8
)

// Kind discriminates the type representations.
type Kind int

// Type kinds.
const (
	Void Kind = iota
	Char
	Int
	Pointer
	Array
	Struct
	Func
)

// Type is the interface implemented by all MiniC types.
type Type interface {
	Kind() Kind
	// Size returns the storage size in bytes; function and void types
	// have size 0.
	Size() int
	// Align returns the required alignment in bytes (at least 1).
	Align() int
	String() string
}

// Basic is one of the primitive types void, char, int.
type Basic struct{ K Kind }

// Predeclared singleton types.
var (
	VoidType = &Basic{K: Void}
	CharType = &Basic{K: Char}
	IntType  = &Basic{K: Int}
)

// Kind returns the primitive kind.
func (b *Basic) Kind() Kind { return b.K }

// Size returns the primitive size.
func (b *Basic) Size() int {
	switch b.K {
	case Char:
		return CharSize
	case Int:
		return IntSize
	default:
		return 0
	}
}

// Align returns the primitive alignment.
func (b *Basic) Align() int {
	if b.K == Char {
		return 1
	}
	if b.K == Int {
		return IntSize
	}
	return 1
}

func (b *Basic) String() string {
	switch b.K {
	case Void:
		return "void"
	case Char:
		return "char"
	default:
		return "int"
	}
}

// Ptr is a pointer type.
type Ptr struct{ Elem Type }

// PointerTo returns the pointer type to elem.
func PointerTo(elem Type) *Ptr { return &Ptr{Elem: elem} }

// Kind returns Pointer.
func (p *Ptr) Kind() Kind { return Pointer }

// Size returns the pointer size.
func (p *Ptr) Size() int { return PtrSize }

// Align returns the pointer alignment.
func (p *Ptr) Align() int     { return PtrSize }
func (p *Ptr) String() string { return derivedString(p) }

// Arr is a fixed-length array type.
type Arr struct {
	Elem Type
	Len  int
}

// ArrayOf returns the array type [n]elem.
func ArrayOf(elem Type, n int) *Arr { return &Arr{Elem: elem, Len: n} }

// Kind returns Array.
func (a *Arr) Kind() Kind { return Array }

// Size returns element size times length.
func (a *Arr) Size() int { return a.Elem.Size() * a.Len }

// Align returns the element alignment.
func (a *Arr) Align() int     { return a.Elem.Align() }
func (a *Arr) String() string { return derivedString(a) }

// maxTypeName bounds a rendered pointer or array type: a longer name
// keeps its two ends around an ellipsis.
const maxTypeName = 160

// derivedString renders a chain of pointer and array types as the
// innermost other type followed by one suffix per level, innermost first
// ("char*[4]*"). It walks the chain instead of recursing, so naming a
// type built a million typedefs deep costs time linear in the depth, and
// the name it returns is at most maxTypeName bytes plus the ellipsis.
func derivedString(t Type) string {
	var levels []Type // outermost first
	for {
		switch d := t.(type) {
		case *Ptr:
			levels, t = append(levels, t), d.Elem
			continue
		case *Arr:
			levels, t = append(levels, t), d.Elem
			continue
		}
		break
	}
	var sb strings.Builder
	sb.WriteString(t.String())
	for i := len(levels) - 1; i >= 0; i-- {
		if a, ok := levels[i].(*Arr); ok && a.Len < 0 {
			sb.WriteString("[]") // length still unknown
		} else if ok {
			fmt.Fprintf(&sb, "[%d]", a.Len)
		} else {
			sb.WriteByte('*')
		}
	}
	s := sb.String()
	if len(s) > maxTypeName {
		s = s[:maxTypeName/2] + "..." + s[len(s)-maxTypeName/2:]
	}
	return s
}

// Field is a struct member with its computed byte offset.
type Field struct {
	Name   string
	Type   Type
	Offset int
}

// StructType is a named struct with laid-out fields.
type StructType struct {
	Name   string
	Fields []Field
	size   int
	align  int
	laid   bool
}

// NewStruct returns a struct type shell; call SetFields to lay it out.
// Incomplete structs (declared but not defined) have no fields and size 0.
func NewStruct(name string) *StructType { return &StructType{Name: name, align: 1} }

// SetFields installs the field list and computes offsets, size, and
// alignment using natural alignment rules.
func (s *StructType) SetFields(fields []Field) {
	off := 0
	align := 1
	for i := range fields {
		a := fields[i].Type.Align()
		if a > align {
			align = a
		}
		off = alignUp(off, a)
		fields[i].Offset = off
		off += fields[i].Type.Size()
	}
	s.Fields = fields
	s.size = alignUp(off, align)
	s.align = align
	s.laid = true
}

func alignUp(n, a int) int {
	if a <= 1 {
		return n
	}
	return (n + a - 1) / a * a
}

// Complete reports whether the struct definition has been seen.
func (s *StructType) Complete() bool { return s.laid }

// Field returns the field with the given name, or nil.
func (s *StructType) Field(name string) *Field {
	for i := range s.Fields {
		if s.Fields[i].Name == name {
			return &s.Fields[i]
		}
	}
	return nil
}

// Kind returns Struct.
func (s *StructType) Kind() Kind { return Struct }

// Size returns the laid-out size.
func (s *StructType) Size() int { return s.size }

// Align returns the struct alignment.
func (s *StructType) Align() int     { return s.align }
func (s *StructType) String() string { return "struct " + s.Name }

// FuncType describes a function signature.
type FuncType struct {
	Params   []Type
	Result   Type
	Variadic bool
}

// Kind returns Func.
func (f *FuncType) Kind() Kind { return Func }

// Size of a function type is 0; only pointers to functions are stored.
func (f *FuncType) Size() int { return 0 }

// Align of a function type is 1.
func (f *FuncType) Align() int { return 1 }

func (f *FuncType) String() string {
	var sb strings.Builder
	sb.WriteString(f.Result.String())
	sb.WriteString(" (")
	for i, p := range f.Params {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(p.String())
	}
	if f.Variadic {
		if len(f.Params) > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString("...")
	}
	sb.WriteString(")")
	return sb.String()
}

// IsInteger reports whether t is char or int.
func IsInteger(t Type) bool {
	k := t.Kind()
	return k == Char || k == Int
}

// IsScalar reports whether t is an integer or pointer type (valid in
// conditions and arithmetic).
func IsScalar(t Type) bool {
	return IsInteger(t) || t.Kind() == Pointer
}

// IsVoid reports whether t is void.
func IsVoid(t Type) bool { return t.Kind() == Void }

// Decay converts array types to pointer-to-element (the C "decay" rule)
// and function types to pointer-to-function; other types pass through.
func Decay(t Type) Type {
	switch tt := t.(type) {
	case *Arr:
		return PointerTo(tt.Elem)
	case *FuncType:
		return PointerTo(tt)
	}
	return t
}

// Identical reports structural type identity (structs by name).
func Identical(a, b Type) bool {
	if a == b {
		return true
	}
	if a == nil || b == nil {
		return false
	}
	if a.Kind() != b.Kind() {
		return false
	}
	switch at := a.(type) {
	case *Basic:
		return at.K == b.(*Basic).K
	case *Ptr:
		return Identical(at.Elem, b.(*Ptr).Elem)
	case *Arr:
		bt := b.(*Arr)
		return at.Len == bt.Len && Identical(at.Elem, bt.Elem)
	case *StructType:
		return at.Name == b.(*StructType).Name
	case *FuncType:
		bt := b.(*FuncType)
		if at.Variadic != bt.Variadic || len(at.Params) != len(bt.Params) {
			return false
		}
		if !Identical(at.Result, bt.Result) {
			return false
		}
		for i := range at.Params {
			if !Identical(at.Params[i], bt.Params[i]) {
				return false
			}
		}
		return true
	}
	return false
}

// AssignableTo reports whether a value of type src may be assigned to a
// location of type dst under MiniC's forgiving (C-like) rules: integers
// convert freely among themselves, any pointer converts to any pointer
// (as with void* in pre-ANSI C), and integers convert to pointers (for 0).
func AssignableTo(src, dst Type) bool {
	src, dst = Decay(src), Decay(dst)
	if Identical(src, dst) {
		return true
	}
	if IsInteger(src) && IsInteger(dst) {
		return true
	}
	if src.Kind() == Pointer && dst.Kind() == Pointer {
		return true
	}
	if IsInteger(src) && dst.Kind() == Pointer {
		return true
	}
	if src.Kind() == Pointer && IsInteger(dst) {
		return true
	}
	return false
}
