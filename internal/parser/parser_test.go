package parser

import (
	"testing"

	"inlinec/internal/ast"
	"inlinec/internal/token"
	"inlinec/internal/types"
)

func parseOK(t *testing.T, src string) *ast.File {
	t.Helper()
	f, err := Parse("t.c", src)
	if err != nil {
		t.Fatalf("parse error: %v\nsource:\n%s", err, src)
	}
	return f
}

func firstFunc(t *testing.T, f *ast.File, name string) *ast.FuncDecl {
	t.Helper()
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Name == name {
			return fd
		}
	}
	t.Fatalf("function %s not found", name)
	return nil
}

func TestParseFunctionDecl(t *testing.T) {
	f := parseOK(t, `
int add(int a, int b) { return a + b; }
void nothing() { }
extern int printf(char *fmt, ...);
char *dup(char *s);
`)
	add := firstFunc(t, f, "add")
	if len(add.Params) != 2 || add.Params[0].Name != "a" || add.Params[1].Name != "b" {
		t.Errorf("add params = %+v", add.Params)
	}
	if !types.Identical(add.Type.Result, types.IntType) {
		t.Errorf("add result = %s", add.Type.Result)
	}
	pf := firstFunc(t, f, "printf")
	if !pf.IsExtern || !pf.Type.Variadic {
		t.Errorf("printf extern=%v variadic=%v", pf.IsExtern, pf.Type.Variadic)
	}
	dup := firstFunc(t, f, "dup")
	if !dup.IsExtern {
		t.Error("prototype without body must be extern")
	}
	if p, ok := dup.Type.Result.(*types.Ptr); !ok || p.Elem.Kind() != types.Char {
		t.Errorf("dup result = %s, want char*", dup.Type.Result)
	}
}

func TestParseDeclarators(t *testing.T) {
	f := parseOK(t, `
int x;
int *p;
int **pp;
int arr[10];
int grid[3][4];
char *names[5];
int (*fp)(int, int);
int (*handlers[4])(char *);
char buf[] = "hello";
int init[] = {1, 2, 3};
`)
	want := map[string]string{
		"x":        "int",
		"p":        "int*",
		"pp":       "int**",
		"arr":      "int[10]",
		"grid":     "int[4][3]",
		"names":    "char*[5]",
		"fp":       "int (int, int)*",
		"handlers": "int (char*)*[4]",
		"buf":      "char[6]",
		"init":     "int[3]",
	}
	for _, d := range f.Decls {
		vd, ok := d.(*ast.VarDecl)
		if !ok {
			continue
		}
		if w, exists := want[vd.Name]; exists {
			if vd.Type.String() != w {
				t.Errorf("%s: type %s, want %s", vd.Name, vd.Type, w)
			}
			delete(want, vd.Name)
		}
	}
	for name := range want {
		t.Errorf("declaration %s not parsed", name)
	}
}

func TestParseStructEnumTypedef(t *testing.T) {
	f := parseOK(t, `
struct Node { int val; struct Node *next; char tag; };
enum { A, B, C = 10, D };
typedef struct Node Node;
typedef int (*Handler)(int);
struct Node head;
int pick() { return C + D; }
`)
	if len(f.Structs) != 1 || f.Structs[0].Name != "Node" {
		t.Fatalf("structs = %v", f.Structs)
	}
	st := f.Structs[0]
	if !st.Complete() || len(st.Fields) != 3 {
		t.Fatalf("struct Node incomplete or wrong fields: %+v", st.Fields)
	}
	if next := st.Field("next"); next == nil || next.Type.Kind() != types.Pointer {
		t.Errorf("next field should be a pointer")
	}
	// Enum constants fold at parse time: C + D == 10 + 11.
	pick := firstFunc(t, f, "pick")
	ret := pick.Body.List[0].(*ast.ReturnStmt)
	bin := ret.X.(*ast.BinaryExpr)
	if bin.X.(*ast.IntLit).Value != 10 || bin.Y.(*ast.IntLit).Value != 11 {
		t.Errorf("enum constants = %d, %d; want 10, 11",
			bin.X.(*ast.IntLit).Value, bin.Y.(*ast.IntLit).Value)
	}
}

func TestParsePrecedence(t *testing.T) {
	// 1 + 2 * 3 parses as 1 + (2 * 3).
	f := parseOK(t, "int v() { return 1 + 2 * 3; }")
	ret := firstFunc(t, f, "v").Body.List[0].(*ast.ReturnStmt)
	top := ret.X.(*ast.BinaryExpr)
	if top.Op != token.Plus {
		t.Fatalf("top op = %v, want +", top.Op)
	}
	rhs, ok := top.Y.(*ast.BinaryExpr)
	if !ok || rhs.Op != token.Star {
		t.Fatalf("rhs = %T, want 2*3", top.Y)
	}

	// a = b = c is right-associative.
	f = parseOK(t, "int w(int a, int b, int c) { a = b = c; return a; }")
	expr := firstFunc(t, f, "w").Body.List[0].(*ast.ExprStmt).X.(*ast.AssignExpr)
	if _, ok := expr.Y.(*ast.AssignExpr); !ok {
		t.Errorf("a = b = c: right side is %T, want nested assignment", expr.Y)
	}

	// shift binds tighter than comparison, looser than addition.
	f = parseOK(t, "int u(int a) { return a + 1 << 2 < 3; }")
	cmp := firstFunc(t, f, "u").Body.List[0].(*ast.ReturnStmt).X.(*ast.BinaryExpr)
	if cmp.Op != token.Lt {
		t.Fatalf("top = %v, want <", cmp.Op)
	}
	sh, ok := cmp.X.(*ast.BinaryExpr)
	if !ok || sh.Op != token.Shl {
		t.Fatalf("lhs of < is %v, want <<", cmp.X)
	}
}

func TestParseStatements(t *testing.T) {
	f := parseOK(t, `
int f(int n) {
    int i, total;
    total = 0;
    for (i = 0; i < n; i++) total += i;
    while (total > 100) total /= 2;
    do { total++; } while (total < 10);
    if (total == 7) return 1; else total--;
    switch (total) {
    case 1: return 10;
    case 2: case 3: return 20;
    default: break;
    }
again:
    if (total > 0) { total--; goto again; }
    return total;
}
`)
	fd := firstFunc(t, f, "f")
	kinds := make(map[string]bool)
	var walk func(s ast.Stmt)
	walk = func(s ast.Stmt) {
		switch ss := s.(type) {
		case *ast.BlockStmt:
			kinds["block"] = true
			for _, st := range ss.List {
				walk(st)
			}
		case *ast.ForStmt:
			kinds["for"] = true
			walk(ss.Body)
		case *ast.WhileStmt:
			kinds["while"] = true
			walk(ss.Body)
		case *ast.DoWhileStmt:
			kinds["do"] = true
			walk(ss.Body)
		case *ast.IfStmt:
			kinds["if"] = true
			walk(ss.Then)
			if ss.Else != nil {
				walk(ss.Else)
			}
		case *ast.SwitchStmt:
			kinds["switch"] = true
			for _, cc := range ss.Cases {
				for _, st := range cc.Body {
					walk(st)
				}
			}
		case *ast.GotoStmt:
			kinds["goto"] = true
		case *ast.LabeledStmt:
			kinds["label"] = true
			walk(ss.Stmt)
		}
	}
	walk(fd.Body)
	for _, k := range []string{"for", "while", "do", "if", "switch", "goto", "label"} {
		if !kinds[k] {
			t.Errorf("statement kind %q not parsed", k)
		}
	}
}

func TestParseSwitchCaseGroups(t *testing.T) {
	f := parseOK(t, `
int g(int x) {
    switch (x) {
    case 1: case 2: case 3: return 1;
    default: return 0;
    }
}
`)
	sw := firstFunc(t, f, "g").Body.List[0].(*ast.SwitchStmt)
	if len(sw.Cases) != 2 {
		t.Fatalf("cases = %d, want 2", len(sw.Cases))
	}
	if len(sw.Cases[0].Values) != 3 {
		t.Errorf("first clause has %d values, want 3", len(sw.Cases[0].Values))
	}
	if sw.Cases[1].Values != nil {
		t.Errorf("second clause should be default")
	}
}

func TestParseAdjacentStringConcat(t *testing.T) {
	f := parseOK(t, `char *s = "ab" "cd" "ef";`)
	vd := f.Decls[0].(*ast.VarDecl)
	lit, ok := vd.Init.(*ast.StrLit)
	if !ok || lit.Value != "abcdef" {
		t.Errorf("concatenated literal = %#v", vd.Init)
	}
}

func TestParseSizeofAndCast(t *testing.T) {
	f := parseOK(t, `
struct S { int a; int b; };
int h(int x) { return sizeof(struct S) + sizeof x + (char)(x + 1); }
`)
	ret := firstFunc(t, f, "h").Body.List[0].(*ast.ReturnStmt)
	// Just require the tree to contain a SizeofExpr with ArgType and one
	// with Arg, and a CastExpr.
	var sawType, sawExpr, sawCast bool
	var walk func(e ast.Expr)
	walk = func(e ast.Expr) {
		switch ee := e.(type) {
		case *ast.BinaryExpr:
			walk(ee.X)
			walk(ee.Y)
		case *ast.SizeofExpr:
			if ee.ArgType != nil {
				sawType = true
			}
			if ee.Arg != nil {
				sawExpr = true
			}
		case *ast.CastExpr:
			sawCast = true
			walk(ee.X)
		}
	}
	walk(ret.X)
	if !sawType || !sawExpr || !sawCast {
		t.Errorf("sizeof(type)=%v sizeof expr=%v cast=%v", sawType, sawExpr, sawCast)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"int f( { }",
		"int f() { return }",
		"int f() { x = ; }",
		"struct { int x; } v;",      // MiniC requires struct tags
		"int f() { case 1: ; }",     // case outside switch
		"int a[-1];",                // negative array length
		"int f() { if x) return; }", // missing paren
		"int 5x;",                   // bad name
		"struct S { char d[]; };",   // field of unknown length
	}
	for _, src := range cases {
		if _, err := Parse("t.c", src); err == nil {
			t.Errorf("Parse(%q): expected error", src)
		}
	}
}

func TestParseErrorRecovery(t *testing.T) {
	// Multiple errors should be reported, not just the first.
	_, err := Parse("t.c", `
int f() { x = ; }
int g() { y = ; }
`)
	if err == nil {
		t.Fatal("expected errors")
	}
	el, ok := err.(ErrorList)
	if !ok {
		t.Fatalf("error type %T", err)
	}
	if len(el) < 2 {
		t.Errorf("got %d errors, want at least 2 (recovery failed)", len(el))
	}
}
