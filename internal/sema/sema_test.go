package sema

import (
	"strings"
	"testing"

	"inlinec/internal/parser"
)

func check(t *testing.T, src string) (*Program, error) {
	t.Helper()
	f, err := parser.Parse("t.c", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return Check(f)
}

func mustCheck(t *testing.T, src string) *Program {
	t.Helper()
	p, err := check(t, src)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	return p
}

func wantError(t *testing.T, src, fragment string) {
	t.Helper()
	_, err := check(t, src)
	if err == nil {
		t.Errorf("expected error containing %q for:\n%s", fragment, src)
		return
	}
	if !strings.Contains(err.Error(), fragment) {
		t.Errorf("error %q does not mention %q", err.Error(), fragment)
	}
}

func TestCheckBasicProgram(t *testing.T) {
	p := mustCheck(t, `
extern int printf(char *fmt, ...);
int helper(int x) { return x * 2; }
int main() { printf("%d\n", helper(21)); return 0; }
`)
	if len(p.Funcs) != 2 {
		t.Errorf("defined funcs = %d, want 2", len(p.Funcs))
	}
	if len(p.Externs) != 1 || p.Externs[0].Name != "printf" {
		t.Errorf("externs = %v", p.Externs)
	}
	if p.Main == nil || p.Main.Name != "main" {
		t.Error("main not identified")
	}
}

func TestCheckPrototypeMerging(t *testing.T) {
	p := mustCheck(t, `
int later(int x);
int caller() { return later(1); }
int later(int x) { return x + 1; }
`)
	if len(p.Funcs) != 2 {
		t.Errorf("funcs = %d, want 2 (prototype merged with definition)", len(p.Funcs))
	}
	if len(p.Externs) != 0 {
		t.Errorf("externs = %d, want 0", len(p.Externs))
	}
}

func TestCheckConflictingPrototypes(t *testing.T) {
	wantError(t, `
int f(int x);
char f(int x) { return 'a'; }
`, "conflicting declarations")
}

func TestCheckAddressTaken(t *testing.T) {
	p := mustCheck(t, `
int used(int x) { return x; }
int stored(int x) { return x; }
int direct(int x) { return x; }
int (*g)(int) = stored;
int take(int (*f)(int)) { return f(1); }
int main() { g = used; return take(used) + direct(2); }
`)
	taken := make(map[string]bool)
	for fd := range p.AddressTaken {
		taken[fd.Name] = true
	}
	if !taken["used"] || !taken["stored"] {
		t.Errorf("address-taken = %v, want used and stored", taken)
	}
	if taken["direct"] {
		t.Error("direct is only called directly; must not be address-taken")
	}
}

func TestCheckScopesAndShadowing(t *testing.T) {
	mustCheck(t, `
int x;
int f(int x) {
    int y;
    y = x;
    { int x; x = 3; y += x; }
    return y;
}
`)
	wantError(t, "int f() { int a; int a; return 0; }", "redeclared")
	wantError(t, "int f(int a, int a) { return a; }", "redeclared")
	wantError(t, "int f() { { int b; } return b; }", "undefined")
}

func TestCheckTypeErrors(t *testing.T) {
	wantError(t, "int f() { return *3; }", "dereference")
	wantError(t, "struct S { int a; }; int f() { struct S s; return s + 1; }", "invalid operands")
	wantError(t, "int f() { undefined_var = 1; return 0; }", "undefined")
	wantError(t, "int f(int a) { 5 = a; return 0; }", "lvalue")
	wantError(t, "struct S { int a; }; int f() { struct S s; return s.b; }", "no field")
	wantError(t, "int f() { int x; return x.a; }", "requires a struct")
	wantError(t, "int f() { int x; return x->a; }", "pointer to struct")
}

func TestCheckCallErrors(t *testing.T) {
	wantError(t, "int g(int a) { return a; } int f() { return g(); }", "number of arguments")
	wantError(t, "int g(int a) { return a; } int f() { return g(1, 2); }", "number of arguments")
	wantError(t, "int f() { int x; x = 3; return x(1); }", "not a function")
	wantError(t, "int f() { return missing(1); }", "undefined")
	// Variadic externs take extra args freely.
	mustCheck(t, `extern int printf(char *f, ...); int m() { return printf("%d %d", 1, 2); }`)
}

func TestCheckControlFlowErrors(t *testing.T) {
	wantError(t, "int f() { break; return 0; }", "break outside")
	wantError(t, "int f() { continue; return 0; }", "continue outside")
	wantError(t, "int f() { goto nowhere; return 0; }", "undefined label")
	wantError(t, `int f(int x) { switch (x) { default: return 1; default: return 2; } }`, "duplicate default")
	wantError(t, `int f(int x) { switch (x) { case 1: return 1; case 1: return 2; } }`, "duplicate case")
	wantError(t, `int f(int x) { lbl: x++; lbl: x--; return x; }`, "redefined")
	// break inside a switch is fine.
	mustCheck(t, `int f(int x) { switch (x) { case 1: break; } return 0; }`)
}

func TestCheckReturnTypes(t *testing.T) {
	wantError(t, "int f() { return; }", "must return a value")
	wantError(t, "void f() { return 3; }", "void function")
	wantError(t, "struct S { int a; }; struct S g; int f() { return g; }", "cannot return")
	mustCheck(t, "void f() { return; }")
	mustCheck(t, "char f() { return 300; }") // narrowing allowed, C-style
}

func TestCheckGlobalInitializers(t *testing.T) {
	mustCheck(t, `
int a = 42;
int b = -7;
char msg[] = "hi";
char *p = "str";
int tab[3] = {1, 2, 3};
int fn(int x) { return x; }
int (*fp)(int) = fn;
`)
	wantError(t, "int a = a + 1;", "must be constant")
	wantError(t, "int g() { return 1; } int a = g();", "must be constant")
}

func TestCheckIncompleteTypes(t *testing.T) {
	wantError(t, "struct Never; struct Never v;", "incomplete type")
	// Pointers to forward-declared structs are fine.
	mustCheck(t, "struct Fwd; struct Fwd *p;")
	// An array whose length nothing gives has no size to lay out.
	wantError(t, "char g[]; int main() { return 0; }", "variable g has incomplete type char[]")
	wantError(t, "int main() { char a[]; return 0; }", "variable a has incomplete type char[]")
	mustCheck(t, "extern char e[]; char s[] = \"abc\";")
}

func TestCheckVoidVariables(t *testing.T) {
	wantError(t, "int f() { void v; return 0; }", "void type")
}

func TestCheckConditionTypes(t *testing.T) {
	wantError(t, "struct S { int a; }; int f() { struct S s; if (s) return 1; return 0; }", "scalar")
	mustCheck(t, "int f(char *p) { if (p) return 1; return 0; }")
	mustCheck(t, "int f(int x) { return x ? 1 : 2; }")
}
