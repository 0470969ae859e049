package types

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPrimitiveSizes(t *testing.T) {
	cases := []struct {
		t           Type
		size, align int
	}{
		{VoidType, 0, 1},
		{CharType, 1, 1},
		{IntType, 8, 8},
		{PointerTo(CharType), 8, 8},
		{PointerTo(PointerTo(IntType)), 8, 8},
		{ArrayOf(CharType, 10), 10, 1},
		{ArrayOf(IntType, 10), 80, 8},
		{ArrayOf(ArrayOf(IntType, 3), 4), 96, 8},
	}
	for _, c := range cases {
		if got := c.t.Size(); got != c.size {
			t.Errorf("%s: size %d, want %d", c.t, got, c.size)
		}
		if got := c.t.Align(); got != c.align {
			t.Errorf("%s: align %d, want %d", c.t, got, c.align)
		}
	}
}

func TestStructLayout(t *testing.T) {
	// struct { char c; int n; char d; } -> c@0, n@8, d@16, size 24.
	s := NewStruct("S")
	s.SetFields([]Field{
		{Name: "c", Type: CharType},
		{Name: "n", Type: IntType},
		{Name: "d", Type: CharType},
	})
	wantOffsets := map[string]int{"c": 0, "n": 8, "d": 16}
	for name, off := range wantOffsets {
		f := s.Field(name)
		if f == nil {
			t.Fatalf("missing field %s", name)
		}
		if f.Offset != off {
			t.Errorf("field %s at %d, want %d", name, f.Offset, off)
		}
	}
	if s.Size() != 24 {
		t.Errorf("size = %d, want 24 (tail padded to alignment)", s.Size())
	}
	if s.Align() != 8 {
		t.Errorf("align = %d, want 8", s.Align())
	}
	if !s.Complete() {
		t.Error("struct should be complete after SetFields")
	}
	if s.Field("missing") != nil {
		t.Error("lookup of missing field should be nil")
	}
}

func TestStructPackedChars(t *testing.T) {
	s := NewStruct("P")
	s.SetFields([]Field{
		{Name: "a", Type: CharType},
		{Name: "b", Type: CharType},
		{Name: "buf", Type: ArrayOf(CharType, 6)},
	})
	if s.Size() != 8 {
		t.Errorf("all-char struct size = %d, want 8 (no padding)", s.Size())
	}
	if s.Field("buf").Offset != 2 {
		t.Errorf("buf offset = %d, want 2", s.Field("buf").Offset)
	}
}

func TestIncompleteStruct(t *testing.T) {
	s := NewStruct("Fwd")
	if s.Complete() {
		t.Error("fresh struct should be incomplete")
	}
	if s.Size() != 0 {
		t.Errorf("incomplete struct size = %d, want 0", s.Size())
	}
	// Pointers to incomplete structs are fine and pointer-sized.
	if PointerTo(s).Size() != PtrSize {
		t.Error("pointer to incomplete struct must be pointer-sized")
	}
}

func TestDecay(t *testing.T) {
	arr := ArrayOf(IntType, 5)
	d := Decay(arr)
	if p, ok := d.(*Ptr); !ok || !Identical(p.Elem, IntType) {
		t.Errorf("array decays to %s, want int*", d)
	}
	ft := &FuncType{Result: IntType}
	if p, ok := Decay(ft).(*Ptr); !ok || !Identical(p.Elem, ft) {
		t.Errorf("function decays to %s, want pointer-to-func", Decay(ft))
	}
	if Decay(IntType) != IntType {
		t.Error("scalar decay must be identity")
	}
}

func TestIdentical(t *testing.T) {
	sa := NewStruct("A")
	sb := NewStruct("B")
	f1 := &FuncType{Params: []Type{IntType}, Result: VoidType}
	f2 := &FuncType{Params: []Type{IntType}, Result: VoidType}
	f3 := &FuncType{Params: []Type{CharType}, Result: VoidType}
	f4 := &FuncType{Params: []Type{IntType}, Result: VoidType, Variadic: true}
	cases := []struct {
		a, b Type
		want bool
	}{
		{IntType, IntType, true},
		{IntType, CharType, false},
		{PointerTo(IntType), PointerTo(IntType), true},
		{PointerTo(IntType), PointerTo(CharType), false},
		{ArrayOf(IntType, 3), ArrayOf(IntType, 3), true},
		{ArrayOf(IntType, 3), ArrayOf(IntType, 4), false},
		{sa, sa, true},
		{sa, sb, false},
		{f1, f2, true},
		{f1, f3, false},
		{f1, f4, false},
		{nil, IntType, false},
	}
	for _, c := range cases {
		if got := Identical(c.a, c.b); got != c.want {
			t.Errorf("Identical(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestAssignableTo(t *testing.T) {
	s := NewStruct("S")
	s.SetFields([]Field{{Name: "x", Type: IntType}})
	cases := []struct {
		src, dst Type
		want     bool
	}{
		{IntType, IntType, true},
		{CharType, IntType, true},                         // integer widening
		{IntType, CharType, true},                         // integer narrowing (C-style)
		{PointerTo(CharType), PointerTo(IntType), true},   // pre-ANSI laxity
		{IntType, PointerTo(CharType), true},              // NULL-style
		{ArrayOf(CharType, 4), PointerTo(CharType), true}, // decay
		{s, IntType, false},
		{s, s, true},
	}
	for _, c := range cases {
		if got := AssignableTo(c.src, c.dst); got != c.want {
			t.Errorf("AssignableTo(%s, %s) = %v, want %v", c.src, c.dst, got, c.want)
		}
	}
}

// randomType builds a random type tree of bounded depth.
func randomType(r *rand.Rand, depth int) Type {
	if depth <= 0 {
		if r.Intn(2) == 0 {
			return IntType
		}
		return CharType
	}
	switch r.Intn(4) {
	case 0:
		return PointerTo(randomType(r, depth-1))
	case 1:
		return ArrayOf(randomType(r, depth-1), 1+r.Intn(8))
	case 2:
		s := NewStruct("R")
		s.SetFields([]Field{
			{Name: "a", Type: randomType(r, depth-1)},
			{Name: "b", Type: randomType(r, depth-1)},
		})
		return s
	default:
		return IntType
	}
}

// TestQuickLayoutInvariants: for random struct field lists, offsets are
// monotone, aligned, non-overlapping, and the total size is aligned.
func TestQuickLayoutInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(6)
		fields := make([]Field, n)
		for i := range fields {
			fields[i] = Field{Name: string(rune('a' + i)), Type: randomType(r, 2)}
		}
		s := NewStruct("Q")
		s.SetFields(fields)
		prevEnd := 0
		for _, fl := range s.Fields {
			if fl.Offset < prevEnd {
				return false // overlap
			}
			if fl.Type.Align() > 0 && fl.Offset%fl.Type.Align() != 0 {
				return false // misaligned
			}
			prevEnd = fl.Offset + fl.Type.Size()
		}
		return s.Size() >= prevEnd && s.Size()%s.Align() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickIdenticalIsEquivalence: Identical is reflexive and symmetric
// over random type trees.
func TestQuickIdenticalIsEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomType(r, 3)
		b := randomType(r, 3)
		if !Identical(a, a) || !Identical(b, b) {
			return false
		}
		return Identical(a, b) == Identical(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestDerivedTypeNames: pointer and array chains render innermost type
// first, and a name past maxTypeName keeps its two ends.
func TestDerivedTypeNames(t *testing.T) {
	if got := PointerTo(ArrayOf(PointerTo(CharType), 4)).String(); got != "char*[4]*" {
		t.Errorf("got %q, want char*[4]*", got)
	}
	var deep Type = IntType
	for i := 0; i < 100000; i++ {
		deep = PointerTo(deep)
	}
	deep = ArrayOf(deep, 7)
	got := deep.String()
	if len(got) != maxTypeName+len("...") || got[:4] != "int*" || got[len(got)-4:] != "*[7]" {
		t.Errorf("100000-deep name: %d bytes %q", len(got), got)
	}
}
