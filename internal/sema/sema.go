// Package sema implements semantic analysis for MiniC: scope construction,
// name resolution, type checking, lvalue validation, direct-call
// resolution, and address-taken analysis (which later feeds the call
// graph's worst-case assumptions about calls through pointers).
package sema

import (
	"fmt"

	"inlinec/internal/ast"
	"inlinec/internal/token"
	"inlinec/internal/types"
)

// Error is a semantic error with a source position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// ErrorList is a collection of semantic errors implementing error.
type ErrorList []*Error

func (el ErrorList) Error() string {
	switch len(el) {
	case 0:
		return "no errors"
	case 1:
		return el[0].Error()
	default:
		return fmt.Sprintf("%s (and %d more errors)", el[0], len(el)-1)
	}
}

// Program is the result of semantic analysis over one translation unit.
type Program struct {
	File    *ast.File
	Funcs   []*ast.FuncDecl // defined functions, in declaration order
	Externs []*ast.FuncDecl // functions declared but not defined here
	Globals []*ast.VarDecl
	// AddressTaken holds the functions whose addresses are used in
	// computations (assigned, passed, stored). Under the paper's rules this
	// is the maximal callee set for calls through pointers.
	AddressTaken map[*ast.FuncDecl]bool
	// Main is the program entry point; nil if absent.
	Main *ast.FuncDecl
}

// HasFunc reports whether the program defines a function with the name.
func (p *Program) HasFunc(name string) bool {
	for _, f := range p.Funcs {
		if f.Name == name {
			return true
		}
	}
	return false
}

// Func returns the defined function with the name, or nil.
func (p *Program) Func(name string) *ast.FuncDecl {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// checker carries the analysis state.
type checker struct {
	prog  *Program
	errs  ErrorList
	scope *scope

	curFunc *ast.FuncDecl
	labels  map[string]bool
	gotos   []*ast.GotoStmt
	loops   int // nesting depth of loops (for break/continue)
	switchs int // nesting depth of switches (for break)
	depth   int // nesting of the expression/statement walk, bounded by ast.MaxNesting
}

// bailout abandons the check once the nesting bound is exceeded.
type bailout struct{}

// enter descends one nesting level at n; callers pair it with leave.
// Past ast.MaxNesting the check is abandoned with a diagnostic rather
// than recursing until the Go stack overflows. The parser already bounds
// the trees it builds; this bound covers any tree handed to Check.
func (c *checker) enter(n ast.Node) {
	c.depth++
	if c.depth > ast.MaxNesting {
		c.errorf(n.Pos(), "nesting too deep (limit %d)", ast.MaxNesting)
		panic(bailout{})
	}
}

func (c *checker) leave() { c.depth-- }

// scope is a lexical scope mapping names to declarations
// (*ast.VarDecl or *ast.FuncDecl).
type scope struct {
	parent *scope
	names  map[string]any
}

func newScope(parent *scope) *scope {
	return &scope{parent: parent, names: make(map[string]any)}
}

func (s *scope) lookup(name string) any {
	for cur := s; cur != nil; cur = cur.parent {
		if d, ok := cur.names[name]; ok {
			return d
		}
	}
	return nil
}

// Check analyzes the file and returns the program, or an error list.
func Check(file *ast.File) (*Program, error) {
	c := &checker{
		prog: &Program{
			File:         file,
			AddressTaken: make(map[*ast.FuncDecl]bool),
		},
		scope: newScope(nil),
	}
	func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(bailout); !ok {
					panic(r)
				}
			}
		}()
		c.collectGlobals()
		for _, d := range file.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				c.checkFunc(fd)
			}
		}
	}()
	c.prog.Main = c.prog.Func("main")
	if len(c.errs) > 0 {
		return c.prog, c.errs
	}
	return c.prog, nil
}

func (c *checker) errorf(pos token.Pos, format string, args ...any) {
	c.errs = append(c.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
}

// collectGlobals installs all top-level names in the file scope, merging
// extern declarations with later definitions.
func (c *checker) collectGlobals() {
	for _, d := range c.prog.File.Decls {
		switch dd := d.(type) {
		case *ast.FuncDecl:
			if prev, ok := c.scope.names[dd.Name]; ok {
				pf, isFunc := prev.(*ast.FuncDecl)
				if !isFunc {
					c.errorf(dd.Pos(), "%s redeclared as function", dd.Name)
					continue
				}
				if pf.Body != nil && dd.Body != nil {
					c.errorf(dd.Pos(), "function %s redefined", dd.Name)
					continue
				}
				if !types.Identical(pf.Type, dd.Type) {
					c.errorf(dd.Pos(), "conflicting declarations of %s: %s vs %s", dd.Name, pf.Type, dd.Type)
				}
				if dd.Body != nil {
					// Definition supersedes the prototype.
					c.scope.names[dd.Name] = dd
					c.replaceExtern(pf, dd)
				}
				continue
			}
			c.scope.names[dd.Name] = dd
			if dd.Body != nil {
				c.prog.Funcs = append(c.prog.Funcs, dd)
			} else {
				c.prog.Externs = append(c.prog.Externs, dd)
			}
		case *ast.VarDecl:
			if _, ok := c.scope.names[dd.Name]; ok {
				c.errorf(dd.Pos(), "global %s redeclared", dd.Name)
				continue
			}
			if dd.Type != nil && (!dd.IsExtern && dd.Type.Size() < 0 || dd.Type.Kind() == types.Struct && !dd.Type.(*types.StructType).Complete()) {
				c.errorf(dd.Pos(), "variable %s has incomplete type %s", dd.Name, dd.Type)
			}
			c.scope.names[dd.Name] = dd
			c.prog.Globals = append(c.prog.Globals, dd)
			if dd.Init != nil {
				c.checkGlobalInit(dd)
			}
		}
	}
}

func (c *checker) replaceExtern(old, def *ast.FuncDecl) {
	for i, f := range c.prog.Externs {
		if f == old {
			c.prog.Externs = append(c.prog.Externs[:i], c.prog.Externs[i+1:]...)
			break
		}
	}
	c.prog.Funcs = append(c.prog.Funcs, def)
}

// checkGlobalInit validates that a global initializer is a constant
// expression, a string literal, or an initializer list of such.
func (c *checker) checkGlobalInit(vd *ast.VarDecl) {
	var walk func(e ast.Expr, t types.Type)
	walk = func(e ast.Expr, t types.Type) {
		switch ee := e.(type) {
		case *ast.IntLit:
			ee.SetType(types.IntType)
			if t != nil && !types.AssignableTo(types.IntType, t) {
				c.errorf(e.Pos(), "cannot initialize %s with an integer constant", t)
			}
		case *ast.StrLit:
			ee.SetType(types.PointerTo(types.CharType))
		case *ast.UnaryExpr:
			if ee.Op == token.Minus || ee.Op == token.Tilde {
				walk(ee.X, t)
				ee.SetType(types.IntType)
				return
			}
			if ee.Op == token.Amp {
				// &function or &global: a constant address.
				if id, ok := ee.X.(*ast.Ident); ok {
					c.resolveIdent(id)
					ee.SetType(types.PointerTo(types.IntType))
					return
				}
			}
			c.errorf(e.Pos(), "global initializer must be constant")
		case *ast.Ident:
			// Permit function names (constant addresses) in initializers.
			c.resolveIdent(ee)
			if fd, ok := ee.Ref.(*ast.FuncDecl); ok {
				c.prog.AddressTaken[fd] = true
				return
			}
			c.errorf(e.Pos(), "global initializer must be constant")
		case *ast.InitListExpr:
			ee.SetType(t)
			var elemT types.Type = types.IntType
			if arr, ok := t.(*types.Arr); ok {
				elemT = arr.Elem
			}
			for _, el := range ee.Elems {
				walk(el, elemT)
			}
		default:
			c.errorf(e.Pos(), "global initializer must be constant")
		}
	}
	walk(vd.Init, vd.Type)
}

// ---------------------------------------------------------------- functions

func (c *checker) checkFunc(fd *ast.FuncDecl) {
	c.curFunc = fd
	c.labels = make(map[string]bool)
	c.gotos = nil
	c.loops, c.switchs = 0, 0

	fnScope := newScope(c.scope)
	for _, p := range fd.Params {
		if p.Name == "" {
			c.errorf(fd.Pos(), "function %s has an unnamed parameter", fd.Name)
			continue
		}
		if _, dup := fnScope.names[p.Name]; dup {
			c.errorf(p.Pos(), "parameter %s redeclared", p.Name)
		}
		fnScope.names[p.Name] = p
	}
	saved := c.scope
	c.scope = fnScope
	c.checkBlock(fd.Body, false)
	c.scope = saved

	for _, g := range c.gotos {
		if !c.labels[g.Label] {
			c.errorf(g.Pos(), "goto undefined label %s", g.Label)
		}
	}
	c.curFunc = nil
}

// checkBlock checks a block; if transparent, declarations land in the
// enclosing scope (used for multi-declarator locals and for statement).
func (c *checker) checkBlock(b *ast.BlockStmt, transparent bool) {
	if !transparent {
		c.scope = newScope(c.scope)
		defer func() { c.scope = c.scope.parent }()
	}
	for _, s := range b.List {
		c.checkStmt(s)
	}
}

func (c *checker) declareLocal(vd *ast.VarDecl) {
	if vd.Name == "" {
		return
	}
	if _, dup := c.scope.names[vd.Name]; dup {
		c.errorf(vd.Pos(), "%s redeclared in this scope", vd.Name)
	}
	if vd.Type.Kind() == types.Void {
		c.errorf(vd.Pos(), "variable %s has void type", vd.Name)
	}
	if st, ok := vd.Type.(*types.StructType); ok && !st.Complete() || vd.Type.Size() < 0 {
		c.errorf(vd.Pos(), "variable %s has incomplete type %s", vd.Name, vd.Type)
	}
	c.scope.names[vd.Name] = vd
	if vd.Init != nil {
		c.checkLocalInit(vd)
	}
}

func (c *checker) checkLocalInit(vd *ast.VarDecl) {
	if lst, ok := vd.Init.(*ast.InitListExpr); ok {
		arr, isArr := vd.Type.(*types.Arr)
		st, isStruct := vd.Type.(*types.StructType)
		switch {
		case isArr:
			if len(lst.Elems) > arr.Len {
				c.errorf(lst.Pos(), "too many initializers for %s", vd.Type)
			}
			for _, el := range lst.Elems {
				t := c.checkExpr(el)
				if t != nil && !types.AssignableTo(t, arr.Elem) {
					c.errorf(el.Pos(), "cannot initialize %s element with %s", arr.Elem, t)
				}
			}
		case isStruct:
			if len(lst.Elems) > len(st.Fields) {
				c.errorf(lst.Pos(), "too many initializers for %s", vd.Type)
			}
			for i, el := range lst.Elems {
				t := c.checkExpr(el)
				if i < len(st.Fields) && t != nil && !types.AssignableTo(t, st.Fields[i].Type) {
					c.errorf(el.Pos(), "cannot initialize field %s with %s", st.Fields[i].Name, t)
				}
			}
		default:
			c.errorf(lst.Pos(), "initializer list requires array or struct type")
		}
		lst.SetType(vd.Type)
		return
	}
	t := c.checkExpr(vd.Init)
	if t == nil {
		return
	}
	if arr, ok := vd.Type.(*types.Arr); ok {
		if _, isStr := vd.Init.(*ast.StrLit); isStr && arr.Elem.Kind() == types.Char {
			return // char buf[] = "..." is fine
		}
	}
	if !types.AssignableTo(t, vd.Type) {
		c.errorf(vd.Init.Pos(), "cannot initialize %s with value of type %s", vd.Type, t)
	}
}

// ---------------------------------------------------------------- statements

func (c *checker) checkStmt(s ast.Stmt) {
	c.enter(s)
	defer c.leave()
	switch ss := s.(type) {
	case *ast.BlockStmt:
		c.checkBlock(ss, ss.DeclGroup)
	case *ast.VarDecl:
		c.declareLocal(ss)
	case *ast.EmptyStmt:
	case *ast.ExprStmt:
		c.checkExpr(ss.X)
	case *ast.IfStmt:
		c.condExpr(ss.Cond)
		c.checkStmt(ss.Then)
		if ss.Else != nil {
			c.checkStmt(ss.Else)
		}
	case *ast.WhileStmt:
		c.condExpr(ss.Cond)
		c.loops++
		c.checkStmt(ss.Body)
		c.loops--
	case *ast.DoWhileStmt:
		c.loops++
		c.checkStmt(ss.Body)
		c.loops--
		c.condExpr(ss.Cond)
	case *ast.ForStmt:
		c.scope = newScope(c.scope)
		if ss.Init != nil {
			if blk, ok := ss.Init.(*ast.BlockStmt); ok {
				c.checkBlock(blk, true) // multi-declarator init shares scope
			} else {
				c.checkStmt(ss.Init)
			}
		}
		if ss.Cond != nil {
			c.condExpr(ss.Cond)
		}
		if ss.Post != nil {
			c.checkExpr(ss.Post)
		}
		c.loops++
		c.checkStmt(ss.Body)
		c.loops--
		c.scope = c.scope.parent
	case *ast.ReturnStmt:
		res := c.curFunc.Type.Result
		if ss.X == nil {
			if !types.IsVoid(res) {
				c.errorf(ss.Pos(), "function %s must return a value of type %s", c.curFunc.Name, res)
			}
			return
		}
		if types.IsVoid(res) {
			c.errorf(ss.Pos(), "void function %s returns a value", c.curFunc.Name)
			c.checkExpr(ss.X)
			return
		}
		t := c.checkExpr(ss.X)
		if t != nil && !types.AssignableTo(t, res) {
			c.errorf(ss.X.Pos(), "cannot return %s from function returning %s", t, res)
		}
	case *ast.BreakStmt:
		if c.loops == 0 && c.switchs == 0 {
			c.errorf(ss.Pos(), "break outside loop or switch")
		}
	case *ast.ContinueStmt:
		if c.loops == 0 {
			c.errorf(ss.Pos(), "continue outside loop")
		}
	case *ast.GotoStmt:
		c.gotos = append(c.gotos, ss)
	case *ast.LabeledStmt:
		if c.labels[ss.Label] {
			c.errorf(ss.Pos(), "label %s redefined", ss.Label)
		}
		c.labels[ss.Label] = true
		c.checkStmt(ss.Stmt)
	case *ast.SwitchStmt:
		t := c.checkExpr(ss.Tag)
		if t != nil && !types.IsInteger(t) {
			c.errorf(ss.Tag.Pos(), "switch tag must have integer type, got %s", t)
		}
		c.switchs++
		seen := make(map[int64]bool)
		sawDefault := false
		for _, cc := range ss.Cases {
			if cc.Values == nil {
				if sawDefault {
					c.errorf(cc.Pos(), "duplicate default case")
				}
				sawDefault = true
			}
			for _, v := range cc.Values {
				c.checkExpr(v)
				if lit, ok := v.(*ast.IntLit); ok {
					if seen[lit.Value] {
						c.errorf(v.Pos(), "duplicate case value %d", lit.Value)
					}
					seen[lit.Value] = true
				} else {
					c.errorf(v.Pos(), "case value must be an integer constant")
				}
			}
			c.scope = newScope(c.scope)
			for _, st := range cc.Body {
				c.checkStmt(st)
			}
			c.scope = c.scope.parent
		}
		c.switchs--
	default:
		c.errorf(s.Pos(), "unhandled statement %T", s)
	}
}

func (c *checker) condExpr(e ast.Expr) {
	t := c.checkExpr(e)
	if t != nil && !types.IsScalar(types.Decay(t)) {
		c.errorf(e.Pos(), "condition must be scalar, got %s", t)
	}
}

// --------------------------------------------------------------- expressions

// resolveIdent binds an identifier to its declaration without recording an
// address-taken use (callers decide that).
func (c *checker) resolveIdent(id *ast.Ident) any {
	d := c.scope.lookup(id.Name)
	if d == nil {
		c.errorf(id.Pos(), "undefined: %s", id.Name)
		id.SetType(types.IntType)
		return nil
	}
	id.Ref = d
	switch dd := d.(type) {
	case *ast.VarDecl:
		id.SetType(dd.Type)
	case *ast.FuncDecl:
		id.SetType(dd.Type)
	}
	return d
}

// checkExpr type-checks e and returns its type (nil after an error that
// leaves the type unknown; errors still set a fallback type on the node).
func (c *checker) checkExpr(e ast.Expr) types.Type {
	c.enter(e)
	defer c.leave()
	switch ee := e.(type) {
	case *ast.IntLit:
		ee.SetType(types.IntType)
	case *ast.StrLit:
		ee.SetType(types.PointerTo(types.CharType))
	case *ast.Ident:
		d := c.resolveIdent(ee)
		if fd, ok := d.(*ast.FuncDecl); ok {
			// A function name outside a direct-call position is an
			// address-taken use (it decays to a function pointer).
			c.prog.AddressTaken[fd] = true
		}
	case *ast.UnaryExpr:
		return c.checkUnary(ee)
	case *ast.PostfixExpr:
		t := c.checkExpr(ee.X)
		if !c.isLvalue(ee.X) {
			c.errorf(ee.Pos(), "%s requires an lvalue", ee.Op)
		}
		if t != nil && !types.IsScalar(t) {
			c.errorf(ee.Pos(), "%s requires scalar operand, got %s", ee.Op, t)
		}
		ee.SetType(t)
	case *ast.BinaryExpr:
		return c.checkBinary(ee)
	case *ast.AssignExpr:
		return c.checkAssign(ee)
	case *ast.CondExpr:
		c.condExpr(ee.Cond)
		t1 := c.checkExpr(ee.Then)
		t2 := c.checkExpr(ee.Else)
		switch {
		case t1 != nil && t2 != nil && types.Identical(types.Decay(t1), types.Decay(t2)):
			ee.SetType(types.Decay(t1))
		case t1 != nil && t2 != nil && types.IsInteger(t1) && types.IsInteger(t2):
			ee.SetType(types.IntType)
		case t1 != nil && t2 != nil &&
			types.Decay(t1).Kind() == types.Pointer && types.IsInteger(t2):
			ee.SetType(types.Decay(t1)) // p ? p : 0
		case t1 != nil && t2 != nil &&
			types.IsInteger(t1) && types.Decay(t2).Kind() == types.Pointer:
			ee.SetType(types.Decay(t2))
		case t1 != nil && t2 != nil &&
			types.Decay(t1).Kind() == types.Pointer && types.Decay(t2).Kind() == types.Pointer:
			ee.SetType(types.Decay(t1))
		default:
			if t1 != nil && t2 != nil {
				c.errorf(ee.Pos(), "mismatched conditional types %s and %s", t1, t2)
			}
			ee.SetType(types.IntType)
		}
	case *ast.CallExpr:
		return c.checkCall(ee)
	case *ast.IndexExpr:
		bt := c.checkExpr(ee.X)
		it := c.checkExpr(ee.Index)
		if it != nil && !types.IsInteger(it) {
			c.errorf(ee.Index.Pos(), "array index must be integer, got %s", it)
		}
		switch b := types.Decay(bt).(type) {
		case *types.Ptr:
			ee.SetType(b.Elem)
		default:
			if bt != nil {
				c.errorf(ee.Pos(), "cannot index value of type %s", bt)
			}
			ee.SetType(types.IntType)
		}
	case *ast.MemberExpr:
		return c.checkMember(ee)
	case *ast.SizeofExpr:
		if ee.Arg != nil {
			c.checkExpr(ee.Arg)
		}
		ee.SetType(types.IntType)
	case *ast.CastExpr:
		c.checkExpr(ee.X)
		ee.SetType(ee.To)
	case *ast.CommaExpr:
		c.checkExpr(ee.X)
		t := c.checkExpr(ee.Y)
		ee.SetType(t)
	case *ast.InitListExpr:
		c.errorf(ee.Pos(), "initializer list is only valid in a declaration")
		ee.SetType(types.IntType)
	default:
		c.errorf(e.Pos(), "unhandled expression %T", e)
		return nil
	}
	return e.TypeOf()
}

func (c *checker) checkUnary(ee *ast.UnaryExpr) types.Type {
	switch ee.Op {
	case token.Minus, token.Tilde:
		t := c.checkExpr(ee.X)
		if t != nil && !types.IsInteger(t) {
			c.errorf(ee.Pos(), "operator %s requires integer operand, got %s", ee.Op, t)
		}
		ee.SetType(types.IntType)
	case token.Bang:
		t := c.checkExpr(ee.X)
		if t != nil && !types.IsScalar(types.Decay(t)) {
			c.errorf(ee.Pos(), "operator ! requires scalar operand, got %s", t)
		}
		ee.SetType(types.IntType)
	case token.Star:
		t := c.checkExpr(ee.X)
		switch b := types.Decay(t).(type) {
		case *types.Ptr:
			if b.Elem.Kind() == types.Func {
				ee.SetType(b) // *fp is still a function designator
			} else {
				ee.SetType(b.Elem)
			}
		default:
			if t != nil {
				c.errorf(ee.Pos(), "cannot dereference value of type %s", t)
			}
			ee.SetType(types.IntType)
		}
	case token.Amp:
		if id, ok := ee.X.(*ast.Ident); ok {
			d := c.resolveIdent(id)
			if fd, isFn := d.(*ast.FuncDecl); isFn {
				c.prog.AddressTaken[fd] = true
				ee.SetType(types.PointerTo(fd.Type))
				return ee.TypeOf()
			}
		}
		t := c.checkExpr(ee.X)
		if !c.isLvalue(ee.X) {
			c.errorf(ee.Pos(), "cannot take the address of this expression")
		}
		if t == nil {
			t = types.IntType
		}
		ee.SetType(types.PointerTo(t))
	case token.PlusPlus, token.MinusMinus:
		t := c.checkExpr(ee.X)
		if !c.isLvalue(ee.X) {
			c.errorf(ee.Pos(), "%s requires an lvalue", ee.Op)
		}
		if t != nil && !types.IsScalar(t) {
			c.errorf(ee.Pos(), "%s requires scalar operand, got %s", ee.Op, t)
		}
		ee.SetType(t)
	default:
		c.errorf(ee.Pos(), "unhandled unary operator %s", ee.Op)
		ee.SetType(types.IntType)
	}
	return ee.TypeOf()
}

func (c *checker) checkBinary(ee *ast.BinaryExpr) types.Type {
	tx := c.checkExpr(ee.X)
	ty := c.checkExpr(ee.Y)
	if tx == nil || ty == nil {
		ee.SetType(types.IntType)
		return ee.TypeOf()
	}
	dx, dy := types.Decay(tx), types.Decay(ty)
	switch ee.Op {
	case token.Plus:
		switch {
		case types.IsInteger(dx) && types.IsInteger(dy):
			ee.SetType(types.IntType)
		case dx.Kind() == types.Pointer && types.IsInteger(dy):
			ee.SetType(dx)
		case types.IsInteger(dx) && dy.Kind() == types.Pointer:
			ee.SetType(dy)
		default:
			c.errorf(ee.Pos(), "invalid operands to +: %s and %s", tx, ty)
			ee.SetType(types.IntType)
		}
	case token.Minus:
		switch {
		case types.IsInteger(dx) && types.IsInteger(dy):
			ee.SetType(types.IntType)
		case dx.Kind() == types.Pointer && types.IsInteger(dy):
			ee.SetType(dx)
		case dx.Kind() == types.Pointer && dy.Kind() == types.Pointer:
			ee.SetType(types.IntType)
		default:
			c.errorf(ee.Pos(), "invalid operands to -: %s and %s", tx, ty)
			ee.SetType(types.IntType)
		}
	case token.Star, token.Slash, token.Percent, token.Shl, token.Shr,
		token.Amp, token.Pipe, token.Caret:
		if !types.IsInteger(dx) || !types.IsInteger(dy) {
			c.errorf(ee.Pos(), "invalid operands to %s: %s and %s", ee.Op, tx, ty)
		}
		ee.SetType(types.IntType)
	case token.EqEq, token.NotEq, token.Lt, token.Gt, token.Le, token.Ge:
		ok := (types.IsInteger(dx) && types.IsInteger(dy)) ||
			(dx.Kind() == types.Pointer && dy.Kind() == types.Pointer) ||
			(dx.Kind() == types.Pointer && types.IsInteger(dy)) ||
			(types.IsInteger(dx) && dy.Kind() == types.Pointer)
		if !ok {
			c.errorf(ee.Pos(), "invalid comparison of %s and %s", tx, ty)
		}
		ee.SetType(types.IntType)
	case token.AndAnd, token.OrOr:
		if !types.IsScalar(dx) || !types.IsScalar(dy) {
			c.errorf(ee.Pos(), "invalid operands to %s: %s and %s", ee.Op, tx, ty)
		}
		ee.SetType(types.IntType)
	default:
		c.errorf(ee.Pos(), "unhandled binary operator %s", ee.Op)
		ee.SetType(types.IntType)
	}
	return ee.TypeOf()
}

func (c *checker) checkAssign(ee *ast.AssignExpr) types.Type {
	tx := c.checkExpr(ee.X)
	ty := c.checkExpr(ee.Y)
	if !c.isLvalue(ee.X) {
		c.errorf(ee.Pos(), "assignment target is not an lvalue")
	}
	if tx != nil && tx.Kind() == types.Array {
		c.errorf(ee.Pos(), "cannot assign to an array")
	}
	if ee.Op == token.Assign {
		if tx != nil && ty != nil && !types.AssignableTo(ty, tx) {
			c.errorf(ee.Pos(), "cannot assign %s to %s", ty, tx)
		}
	} else {
		base := ee.Op.BaseOp()
		dx := types.Decay(tx)
		if base == token.Plus || base == token.Minus {
			if tx != nil && ty != nil && !(types.IsInteger(dx) && types.IsInteger(types.Decay(ty))) &&
				!(dx.Kind() == types.Pointer && types.IsInteger(types.Decay(ty))) {
				c.errorf(ee.Pos(), "invalid operands to %s: %s and %s", ee.Op, tx, ty)
			}
		} else if tx != nil && ty != nil && (!types.IsInteger(dx) || !types.IsInteger(types.Decay(ty))) {
			c.errorf(ee.Pos(), "invalid operands to %s: %s and %s", ee.Op, tx, ty)
		}
	}
	ee.SetType(tx)
	return ee.TypeOf()
}

func (c *checker) checkCall(ee *ast.CallExpr) types.Type {
	// Direct call: callee is an identifier bound to a function.
	var ft *types.FuncType
	if id, ok := ee.Fun.(*ast.Ident); ok {
		d := c.resolveIdent(id)
		if fd, isFn := d.(*ast.FuncDecl); isFn {
			ee.Direct = fd
			ft = fd.Type
		} else if d != nil {
			// Variable holding a function pointer.
			t := types.Decay(id.TypeOf())
			if pt, isPtr := t.(*types.Ptr); isPtr {
				if f, isFt := pt.Elem.(*types.FuncType); isFt {
					ft = f
				}
			}
			if ft == nil {
				c.errorf(ee.Pos(), "called object %s is not a function", id.Name)
			}
		}
	} else {
		t := c.checkExpr(ee.Fun)
		switch tt := types.Decay(t).(type) {
		case *types.Ptr:
			if f, isFt := tt.Elem.(*types.FuncType); isFt {
				ft = f
			}
		case *types.FuncType:
			ft = tt
		}
		if ft == nil && t != nil {
			c.errorf(ee.Pos(), "called object has type %s, not a function", t)
		}
	}
	if ft == nil {
		ee.SetType(types.IntType)
		for _, a := range ee.Args {
			c.checkExpr(a)
		}
		return ee.TypeOf()
	}
	if len(ee.Args) < len(ft.Params) || (!ft.Variadic && len(ee.Args) > len(ft.Params)) {
		c.errorf(ee.Pos(), "wrong number of arguments: have %d, want %d", len(ee.Args), len(ft.Params))
	}
	for i, a := range ee.Args {
		at := c.checkExpr(a)
		if i < len(ft.Params) && at != nil && !types.AssignableTo(at, ft.Params[i]) {
			c.errorf(a.Pos(), "argument %d: cannot use %s as %s", i+1, at, ft.Params[i])
		}
	}
	ee.SetType(ft.Result)
	return ee.TypeOf()
}

func (c *checker) checkMember(ee *ast.MemberExpr) types.Type {
	t := c.checkExpr(ee.X)
	if t == nil {
		ee.SetType(types.IntType)
		return ee.TypeOf()
	}
	var st *types.StructType
	if ee.Arrow {
		if pt, ok := types.Decay(t).(*types.Ptr); ok {
			st, _ = pt.Elem.(*types.StructType)
		}
		if st == nil {
			c.errorf(ee.Pos(), "-> requires a pointer to struct, got %s", t)
		}
	} else {
		st, _ = t.(*types.StructType)
		if st == nil {
			c.errorf(ee.Pos(), ". requires a struct, got %s", t)
		}
	}
	if st == nil {
		ee.SetType(types.IntType)
		return ee.TypeOf()
	}
	f := st.Field(ee.Name)
	if f == nil {
		c.errorf(ee.Pos(), "struct %s has no field %s", st.Name, ee.Name)
		ee.SetType(types.IntType)
		return ee.TypeOf()
	}
	ee.Field = f
	ee.SetType(f.Type)
	return ee.TypeOf()
}

// isLvalue reports whether e designates a storage location.
func (c *checker) isLvalue(e ast.Expr) bool {
	switch ee := e.(type) {
	case *ast.Ident:
		_, isVar := ee.Ref.(*ast.VarDecl)
		return isVar
	case *ast.UnaryExpr:
		return ee.Op == token.Star
	case *ast.IndexExpr:
		return true
	case *ast.MemberExpr:
		if ee.Arrow {
			return true
		}
		return c.isLvalue(ee.X)
	}
	return false
}
