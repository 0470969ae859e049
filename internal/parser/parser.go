// Package parser implements a recursive-descent parser for MiniC. It
// produces an ast.File; type names (struct tags, typedefs, enum constants)
// are resolved during parsing so that declarations can be distinguished
// from expressions, as in C.
package parser

import (
	"fmt"

	"inlinec/internal/ast"
	"inlinec/internal/lexer"
	"inlinec/internal/token"
	"inlinec/internal/types"
)

// Error is a parse error with a source position.
type Error struct {
	Pos token.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

// ErrorList is a collection of parse errors implementing error.
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

// Parser holds the parsing state for one translation unit. Tokens are
// pulled from the lexer on demand through a small lookahead ring, so
// memory does not grow with the input and a parse abandoned early never
// scans the rest of it.
type Parser struct {
	lex   *lexer.Lexer
	la    [4]token.Token // lookahead ring; la[pos&3] is the current token
	pos   int            // tokens consumed so far
	end   int            // tokens scanned so far: pos < end <= pos+3
	errs  ErrorList
	depth int // nesting of recursive productions, bounded by ast.MaxNesting

	structs    map[string]*types.StructType
	lastParams *paramInfo
	typedefs   map[string]types.Type
	enumConsts map[string]*ast.EnumConst
	file       *ast.File
}

// maxErrors bounds error accumulation so that a badly broken file does not
// produce an avalanche of useless diagnostics.
const maxErrors = 25

type bailout struct{}

// Parse parses a MiniC translation unit.
func Parse(filename, src string) (*ast.File, error) {
	p := &Parser{
		lex:        lexer.New(filename, src),
		structs:    make(map[string]*types.StructType),
		typedefs:   make(map[string]types.Type),
		enumConsts: make(map[string]*ast.EnumConst),
		file:       &ast.File{Name: filename},
	}
	for i := 0; i < 3; i++ {
		p.scan()
	}
	func() {
		defer func() {
			if r := recover(); r != nil {
				if _, ok := r.(bailout); !ok {
					panic(r)
				}
			}
		}()
		p.parseFile()
	}()
	// Scan whatever a bailout left unread so every lexical error is
	// reported; lexical errors lead the list, as the scanner runs ahead.
	for p.scan() {
	}
	var errs ErrorList
	for _, e := range p.lex.Errors() {
		errs = append(errs, &Error{Pos: e.Pos, Msg: e.Msg})
	}
	if errs = append(errs, p.errs...); len(errs) > 0 {
		return p.file, errs
	}
	return p.file, nil
}

// ------------------------------------------------------------------ plumbing

// scan appends the lexer's next token to the lookahead ring, reporting
// false once EOF has already been scanned.
func (p *Parser) scan() bool {
	if p.end > 0 && p.la[(p.end-1)&3].Kind == token.EOF {
		return false
	}
	p.la[p.end&3] = p.lex.Next()
	p.end++
	return true
}

// ahead returns the token k places past the current one (k <= 2); past
// the end of input that is the EOF token.
func (p *Parser) ahead(k int) token.Token {
	if p.pos+k >= p.end {
		return p.la[(p.end-1)&3]
	}
	return p.la[(p.pos+k)&3]
}

func (p *Parser) cur() token.Token  { return p.la[p.pos&3] }
func (p *Parser) peek() token.Token { return p.ahead(1) }

func (p *Parser) next() token.Token {
	t := p.la[p.pos&3]
	if t.Kind != token.EOF {
		p.pos++
		p.scan()
	}
	return t
}

func (p *Parser) at(k token.Kind) bool { return p.cur().Kind == k }

func (p *Parser) accept(k token.Kind) bool {
	if p.at(k) {
		p.next()
		return true
	}
	return false
}

func (p *Parser) expect(k token.Kind) token.Token {
	if p.at(k) {
		return p.next()
	}
	p.errorf(p.cur().Pos, "expected %s, found %s", k, p.cur())
	return token.Token{Kind: k, Pos: p.cur().Pos}
}

func (p *Parser) errorf(pos token.Pos, format string, args ...any) {
	p.errs = append(p.errs, &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)})
	if len(p.errs)+len(p.lex.Errors()) >= maxErrors {
		panic(bailout{})
	}
}

// enter descends one nesting level; callers pair it with leave. Past
// ast.MaxNesting the parse is abandoned with a positioned diagnostic
// rather than recursing until the Go stack overflows.
func (p *Parser) enter() {
	p.depth++
	if p.depth > ast.MaxNesting {
		p.errs = append(p.errs, &Error{Pos: p.cur().Pos,
			Msg: fmt.Sprintf("nesting too deep (limit %d)", ast.MaxNesting)})
		panic(bailout{})
	}
}

func (p *Parser) leave() { p.depth-- }

// sync skips tokens until a likely statement/declaration boundary.
func (p *Parser) sync() {
	for {
		switch p.cur().Kind {
		case token.EOF, token.RBrace:
			return
		case token.Semi:
			p.next()
			return
		}
		p.next()
	}
}

// ------------------------------------------------------------- declarations

func (p *Parser) parseFile() {
	for !p.at(token.EOF) {
		start := p.pos
		p.parseTopDecl()
		if p.pos == start {
			// No progress: report and skip to avoid an infinite loop.
			p.errorf(p.cur().Pos, "unexpected token %s", p.cur())
			p.next()
		}
	}
}

func (p *Parser) parseTopDecl() {
	switch p.cur().Kind {
	case token.KwTypedef:
		p.parseTypedef()
		return
	case token.KwEnum:
		// enum definition used as a declaration.
		if p.peek().Kind == token.LBrace || (p.peek().Kind == token.Ident && p.ahead(2).Kind == token.LBrace) {
			p.parseTypeSpecifier()
			p.expect(token.Semi)
			return
		}
	case token.KwStruct:
		// struct definition without declarator: struct S { ... };
		if p.peek().Kind == token.Ident && p.ahead(2).Kind == token.LBrace {
			p.parseTypeSpecifier()
			if p.accept(token.Semi) {
				return
			}
			// Fall through: struct S { ... } var;
			p.errorf(p.cur().Pos, "expected ';' after struct definition")
			p.sync()
			return
		}
	case token.Semi:
		p.next()
		return
	}

	isExtern := p.accept(token.KwExtern)
	isStatic := p.accept(token.KwStatic)
	base := p.parseTypeSpecifier()
	if base == nil {
		p.errorf(p.cur().Pos, "expected declaration, found %s", p.cur())
		p.sync()
		return
	}
	if p.accept(token.Semi) {
		return // bare type, e.g. "struct S;"
	}

	// First declarator decides function vs variable.
	name, typ, namePos := p.parseDeclarator(base)
	if ft, ok := typ.(*types.FuncType); ok && (p.at(token.LBrace) || p.at(token.Semi) || p.at(token.Comma)) && name != "" {
		p.finishFuncDecl(name, namePos, ft, isExtern, isStatic)
		return
	}
	p.finishVarDecls(name, namePos, typ, base, isExtern, isStatic, true)
}

// paramInfo is stashed by parseDeclSuffixes when it parses a parameter
// list, so finishFuncDecl can recover declared parameter names.
type paramInfo struct {
	names []string
	poss  []token.Pos
	types []types.Type
}

func (p *Parser) finishFuncDecl(name string, namePos token.Pos, ft *types.FuncType, isExtern, isStatic bool) {
	fd := &ast.FuncDecl{
		NamePos:  namePos,
		Name:     name,
		Type:     ft,
		IsExtern: isExtern,
		IsStatic: isStatic,
	}
	if p.lastParams != nil {
		for i, pn := range p.lastParams.names {
			fd.Params = append(fd.Params, &ast.VarDecl{
				NamePos: p.lastParams.poss[i],
				Name:    pn,
				Type:    p.lastParams.types[i],
				IsParam: true,
			})
		}
	}
	p.lastParams = nil
	if p.at(token.LBrace) {
		fd.Body = p.parseBlock()
	} else {
		fd.IsExtern = true
		p.expect(token.Semi)
	}
	p.file.Decls = append(p.file.Decls, fd)
}

func (p *Parser) finishVarDecls(name string, namePos token.Pos, typ, base types.Type, isExtern, isStatic, topLevel bool) {
	add := func(n string, np token.Pos, t types.Type, init ast.Expr) *ast.VarDecl {
		vd := &ast.VarDecl{NamePos: np, Name: n, Type: t, Init: init, IsExtern: isExtern, IsStatic: isStatic}
		if topLevel {
			p.file.Decls = append(p.file.Decls, vd)
		}
		return vd
	}
	var init ast.Expr
	if p.accept(token.Assign) {
		init = p.parseInitializer()
	}
	first := add(name, namePos, p.completeArray(typ, init), init)
	_ = first
	for p.accept(token.Comma) {
		n2, t2, np2 := p.parseDeclarator(base)
		var init2 ast.Expr
		if p.accept(token.Assign) {
			init2 = p.parseInitializer()
		}
		add(n2, np2, p.completeArray(t2, init2), init2)
	}
	p.expect(token.Semi)
}

// completeArray infers the length of an unsized array from its initializer:
// char s[] = "abc"; int a[] = {1,2,3};
func (p *Parser) completeArray(t types.Type, init ast.Expr) types.Type {
	arr, ok := t.(*types.Arr)
	if !ok || arr.Len >= 0 || init == nil {
		return t
	}
	switch in := init.(type) {
	case *ast.StrLit:
		return types.ArrayOf(arr.Elem, len(in.Value)+1)
	case *ast.InitListExpr:
		return types.ArrayOf(arr.Elem, len(in.Elems))
	}
	return t
}

func (p *Parser) parseTypedef() {
	p.expect(token.KwTypedef)
	base := p.parseTypeSpecifier()
	if base == nil {
		p.errorf(p.cur().Pos, "expected type after typedef")
		p.sync()
		return
	}
	name, typ, pos := p.parseDeclarator(base)
	if name == "" {
		p.errorf(pos, "typedef requires a name")
	} else {
		p.typedefs[name] = typ
	}
	p.expect(token.Semi)
}

// parseTypeSpecifier parses a base type: primitive, struct, enum, or a
// typedef name. Returns nil if the current token does not begin a type.
func (p *Parser) parseTypeSpecifier() types.Type {
	p.accept(token.KwConst) // const is accepted and ignored
	switch p.cur().Kind {
	case token.KwUnsigned:
		p.next()
		// unsigned [int|char|long]
		switch p.cur().Kind {
		case token.KwChar:
			p.next()
			return types.CharType
		case token.KwInt, token.KwLong:
			p.next()
			return types.IntType
		}
		return types.IntType
	case token.KwInt:
		p.next()
		return types.IntType
	case token.KwLong:
		p.next()
		p.accept(token.KwInt) // long int
		return types.IntType
	case token.KwChar:
		p.next()
		return types.CharType
	case token.KwVoid:
		p.next()
		return types.VoidType
	case token.KwStruct:
		return p.parseStructSpecifier()
	case token.KwEnum:
		return p.parseEnumSpecifier()
	case token.Ident:
		if t, ok := p.typedefs[p.cur().Text]; ok {
			p.next()
			return t
		}
	}
	return nil
}

func (p *Parser) parseStructSpecifier() types.Type {
	p.expect(token.KwStruct)
	nameTok := p.expect(token.Ident)
	st, ok := p.structs[nameTok.Text]
	if !ok {
		st = types.NewStruct(nameTok.Text)
		p.structs[nameTok.Text] = st
		p.file.Structs = append(p.file.Structs, st)
	}
	if p.accept(token.LBrace) {
		p.enter()
		defer p.leave()
		if st.Complete() {
			p.errorf(nameTok.Pos, "redefinition of struct %s", nameTok.Text)
		}
		var fields []types.Field
		for !p.at(token.RBrace) && !p.at(token.EOF) {
			base := p.parseTypeSpecifier()
			if base == nil {
				p.errorf(p.cur().Pos, "expected field type in struct %s", nameTok.Text)
				p.sync()
				continue
			}
			for {
				fname, ftyp, fpos := p.parseDeclarator(base)
				if fname == "" {
					p.errorf(fpos, "expected field name")
				}
				if ftyp.Size() < 0 {
					p.errorf(fpos, "field %s has incomplete type %s", fname, ftyp)
				}
				fields = append(fields, types.Field{Name: fname, Type: ftyp})
				if !p.accept(token.Comma) {
					break
				}
			}
			p.expect(token.Semi)
		}
		p.expect(token.RBrace)
		st.SetFields(fields)
	}
	return st
}

func (p *Parser) parseEnumSpecifier() types.Type {
	p.expect(token.KwEnum)
	p.accept(token.Ident) // optional tag, unused
	if p.accept(token.LBrace) {
		next := int64(0)
		for !p.at(token.RBrace) && !p.at(token.EOF) {
			nameTok := p.expect(token.Ident)
			if p.accept(token.Assign) {
				v, ok := p.parseConstExpr()
				if !ok {
					p.errorf(nameTok.Pos, "enum value must be a constant expression")
				}
				next = v
			}
			p.enumConsts[nameTok.Text] = &ast.EnumConst{Name: nameTok.Text, Value: next}
			next++
			if !p.accept(token.Comma) {
				break
			}
		}
		p.expect(token.RBrace)
	}
	return types.IntType
}

// parseConstExpr parses and folds a small constant expression used in enum
// values and array lengths. Only literals, enum constants, unary minus, and
// | + - * << are supported here; general folding happens in opt.
func (p *Parser) parseConstExpr() (int64, bool) {
	v, ok := p.parseConstUnary()
	if !ok {
		return 0, false
	}
	for {
		op := p.cur().Kind
		switch op {
		case token.Plus, token.Minus, token.Star, token.Shl, token.Pipe:
			p.next()
			w, ok2 := p.parseConstUnary()
			if !ok2 {
				return 0, false
			}
			switch op {
			case token.Plus:
				v += w
			case token.Minus:
				v -= w
			case token.Star:
				v *= w
			case token.Shl:
				v <<= uint(w)
			case token.Pipe:
				v |= w
			}
		default:
			return v, true
		}
	}
}

func (p *Parser) parseConstUnary() (int64, bool) {
	p.enter()
	defer p.leave()
	switch p.cur().Kind {
	case token.Minus:
		p.next()
		v, ok := p.parseConstUnary()
		return -v, ok
	case token.Int:
		return p.next().Val, true
	case token.Ident:
		if ec, ok := p.enumConsts[p.cur().Text]; ok {
			p.next()
			return ec.Value, true
		}
	case token.LParen:
		p.next()
		v, ok := p.parseConstExpr()
		p.expect(token.RParen)
		return v, ok
	}
	return 0, false
}

// parseDeclarator parses a C declarator against a base type and returns
// the declared name (possibly empty for abstract declarators), the full
// type, and the name position. Handles pointers, arrays, function
// parameter lists, and parenthesized (function-pointer) declarators.
func (p *Parser) parseDeclarator(base types.Type) (string, types.Type, token.Pos) {
	// Every star nests the type one level deeper, like a nested
	// declarator does.
	depth := p.depth
	defer func() { p.depth = depth }()
	p.enter()
	for p.accept(token.Star) {
		p.enter()
		p.accept(token.KwConst)
		base = types.PointerTo(base)
	}
	return p.parseDirectDeclarator(base)
}

func (p *Parser) parseDirectDeclarator(base types.Type) (string, types.Type, token.Pos) {
	var name string
	namePos := p.cur().Pos

	// A parenthesized declarator, e.g. (*f)(int). We must distinguish it
	// from a parameter list of an abstract declarator; '(' followed by '*'
	// or an identifier that is not a type name means nested declarator.
	var inner func(types.Type) types.Type
	if p.at(token.LParen) && p.isNestedDeclarator() {
		p.next()
		// Parse the inner declarator against a placeholder; we thread the
		// eventual outer type through a continuation.
		var innerName string
		var innerPos token.Pos
		holder := &typeHolder{}
		innerName, innerType, ip := p.parseDeclarator(holder)
		innerPos = ip
		p.expect(token.RParen)
		name, namePos = innerName, innerPos
		inner = func(outer types.Type) types.Type {
			return substHolder(innerType, holder, outer)
		}
	} else if p.at(token.Ident) {
		t := p.next()
		name, namePos = t.Text, t.Pos
	}

	// Suffixes: arrays and parameter lists, innermost first per C rules
	// (suffixes bind tighter than the leading stars already consumed).
	typ := p.parseDeclSuffixes(base)
	if inner != nil {
		typ = inner(typ)
	}
	return name, typ, namePos
}

// typeHolder is a placeholder type used to thread nested declarators.
type typeHolder struct{ actual types.Type }

func (h *typeHolder) Kind() types.Kind { return h.actual.Kind() }
func (h *typeHolder) Size() int        { return h.actual.Size() }
func (h *typeHolder) Align() int       { return h.actual.Align() }
func (h *typeHolder) String() string   { return h.actual.String() }

// substHolder rebuilds t with the holder replaced by outer.
func substHolder(t types.Type, h *typeHolder, outer types.Type) types.Type {
	switch tt := t.(type) {
	case *typeHolder:
		return outer
	case *types.Ptr:
		return types.PointerTo(substHolder(tt.Elem, h, outer))
	case *types.Arr:
		return types.ArrayOf(substHolder(tt.Elem, h, outer), tt.Len)
	case *types.FuncType:
		nf := &types.FuncType{Result: substHolder(tt.Result, h, outer), Variadic: tt.Variadic}
		nf.Params = append(nf.Params, tt.Params...)
		return nf
	}
	return t
}

// isNestedDeclarator reports whether the '(' at the current position opens
// a nested declarator rather than a parameter list.
func (p *Parser) isNestedDeclarator() bool {
	nxt := p.peek()
	if nxt.Kind == token.Star {
		return true
	}
	if nxt.Kind == token.Ident {
		_, isType := p.typedefs[nxt.Text]
		return !isType
	}
	return false
}

func (p *Parser) parseDeclSuffixes(base types.Type) types.Type {
	p.enter()
	defer p.leave()
	switch p.cur().Kind {
	case token.LBracket:
		p.next()
		n := -1
		if !p.at(token.RBracket) {
			v, ok := p.parseConstExpr()
			if !ok {
				p.errorf(p.cur().Pos, "array length must be a constant expression")
			} else if v < 0 {
				p.errorf(p.cur().Pos, "negative array length")
			} else {
				n = int(v)
			}
		}
		p.expect(token.RBracket)
		elem := p.parseDeclSuffixes(base)
		return types.ArrayOf(elem, n)
	case token.LParen:
		p.next()
		ft := &types.FuncType{Result: base}
		info := &paramInfo{}
		if p.at(token.KwVoid) && p.peek().Kind == token.RParen {
			p.next() // f(void)
		}
		for !p.at(token.RParen) && !p.at(token.EOF) {
			if p.accept(token.Ellipsis) {
				ft.Variadic = true
				break
			}
			pbase := p.parseTypeSpecifier()
			if pbase == nil {
				p.errorf(p.cur().Pos, "expected parameter type")
				p.sync()
				break
			}
			pname, ptyp, ppos := p.parseDeclarator(pbase)
			ptyp = types.Decay(ptyp) // arrays decay to pointers in params
			ft.Params = append(ft.Params, ptyp)
			info.names = append(info.names, pname)
			info.poss = append(info.poss, ppos)
			info.types = append(info.types, ptyp)
			if !p.accept(token.Comma) {
				break
			}
		}
		p.expect(token.RParen)
		p.lastParams = info
		return ft
	}
	return base
}

// parseInitializer parses an initializer: an assignment expression or a
// brace-enclosed list.
func (p *Parser) parseInitializer() ast.Expr {
	if p.at(token.LBrace) {
		p.enter()
		defer p.leave()
		lb := p.next().Pos
		lst := &ast.InitListExpr{Lbrace: lb}
		for !p.at(token.RBrace) && !p.at(token.EOF) {
			lst.Elems = append(lst.Elems, p.parseInitializer())
			if !p.accept(token.Comma) {
				break
			}
		}
		p.expect(token.RBrace)
		return lst
	}
	return p.parseAssignExpr()
}

// ---------------------------------------------------------------- statements

func (p *Parser) parseBlock() *ast.BlockStmt {
	lb := p.expect(token.LBrace).Pos
	blk := &ast.BlockStmt{Lbrace: lb}
	for !p.at(token.RBrace) && !p.at(token.EOF) {
		start := p.pos
		blk.List = append(blk.List, p.parseStmt())
		if p.pos == start {
			p.errorf(p.cur().Pos, "unexpected token %s in block", p.cur())
			p.next()
		}
	}
	p.expect(token.RBrace)
	return blk
}

// startsType reports whether the current token begins a type (and hence a
// local declaration).
func (p *Parser) startsType() bool {
	switch p.cur().Kind {
	case token.KwInt, token.KwChar, token.KwLong, token.KwVoid, token.KwStruct,
		token.KwEnum, token.KwConst, token.KwUnsigned, token.KwStatic, token.KwExtern:
		return true
	case token.Ident:
		if _, ok := p.typedefs[p.cur().Text]; ok {
			// "t * x;" is a declaration; "t * x" as expr is possible only
			// if t is also a variable, which MiniC forbids.
			return true
		}
	}
	return false
}

func (p *Parser) parseStmt() ast.Stmt {
	p.enter()
	defer p.leave()
	switch p.cur().Kind {
	case token.LBrace:
		return p.parseBlock()
	case token.Semi:
		return &ast.EmptyStmt{Semi: p.next().Pos}
	case token.KwIf:
		return p.parseIf()
	case token.KwWhile:
		return p.parseWhile()
	case token.KwDo:
		return p.parseDoWhile()
	case token.KwFor:
		return p.parseFor()
	case token.KwReturn:
		pos := p.next().Pos
		var x ast.Expr
		if !p.at(token.Semi) {
			x = p.parseExpr()
		}
		p.expect(token.Semi)
		return &ast.ReturnStmt{Return: pos, X: x}
	case token.KwBreak:
		pos := p.next().Pos
		p.expect(token.Semi)
		return &ast.BreakStmt{Break: pos}
	case token.KwContinue:
		pos := p.next().Pos
		p.expect(token.Semi)
		return &ast.ContinueStmt{Continue: pos}
	case token.KwGoto:
		pos := p.next().Pos
		lbl := p.expect(token.Ident)
		p.expect(token.Semi)
		return &ast.GotoStmt{Goto: pos, Label: lbl.Text}
	case token.KwSwitch:
		return p.parseSwitch()
	case token.Ident:
		if p.peek().Kind == token.Colon {
			nameTok := p.next()
			p.next() // colon
			return &ast.LabeledStmt{LabelPos: nameTok.Pos, Label: nameTok.Text, Stmt: p.parseStmt()}
		}
	}
	if p.startsType() {
		return p.parseLocalDecl()
	}
	x := p.parseExpr()
	p.expect(token.Semi)
	return &ast.ExprStmt{X: x}
}

// parseLocalDecl parses one or more local variable declarations sharing a
// base type and wraps multiples in a synthetic block-less sequence (the
// statement list absorbs them via a BlockStmt with the same scope).
func (p *Parser) parseLocalDecl() ast.Stmt {
	p.accept(token.KwStatic) // accepted, treated as ordinary local
	isExtern := p.accept(token.KwExtern)
	base := p.parseTypeSpecifier()
	if base == nil {
		p.errorf(p.cur().Pos, "expected type in declaration")
		p.sync()
		return &ast.EmptyStmt{Semi: p.cur().Pos}
	}
	var decls []ast.Stmt
	for {
		name, typ, namePos := p.parseDeclarator(base)
		if name == "" {
			p.errorf(namePos, "expected variable name")
		}
		var init ast.Expr
		if p.accept(token.Assign) {
			init = p.parseInitializer()
		}
		decls = append(decls, &ast.VarDecl{
			NamePos: namePos, Name: name, Type: p.completeArray(typ, init),
			Init: init, IsExtern: isExtern,
		})
		if !p.accept(token.Comma) {
			break
		}
	}
	p.expect(token.Semi)
	if len(decls) == 1 {
		return decls[0]
	}
	// Multiple declarators: return them as a transparent block; sema treats
	// a DeclGroup block transparently for scoping.
	return &ast.BlockStmt{Lbrace: decls[0].Pos(), List: decls, DeclGroup: true}
}

func (p *Parser) parseIf() ast.Stmt {
	pos := p.expect(token.KwIf).Pos
	p.expect(token.LParen)
	cond := p.parseExpr()
	p.expect(token.RParen)
	then := p.parseStmt()
	var els ast.Stmt
	if p.accept(token.KwElse) {
		els = p.parseStmt()
	}
	return &ast.IfStmt{If: pos, Cond: cond, Then: then, Else: els}
}

func (p *Parser) parseWhile() ast.Stmt {
	pos := p.expect(token.KwWhile).Pos
	p.expect(token.LParen)
	cond := p.parseExpr()
	p.expect(token.RParen)
	body := p.parseStmt()
	return &ast.WhileStmt{While: pos, Cond: cond, Body: body}
}

func (p *Parser) parseDoWhile() ast.Stmt {
	pos := p.expect(token.KwDo).Pos
	body := p.parseStmt()
	p.expect(token.KwWhile)
	p.expect(token.LParen)
	cond := p.parseExpr()
	p.expect(token.RParen)
	p.expect(token.Semi)
	return &ast.DoWhileStmt{Do: pos, Body: body, Cond: cond}
}

func (p *Parser) parseFor() ast.Stmt {
	pos := p.expect(token.KwFor).Pos
	p.expect(token.LParen)
	f := &ast.ForStmt{For: pos}
	if !p.at(token.Semi) {
		if p.startsType() {
			f.Init = p.parseLocalDecl()
		} else {
			x := p.parseExpr()
			p.expect(token.Semi)
			f.Init = &ast.ExprStmt{X: x}
		}
	} else {
		p.next()
	}
	if !p.at(token.Semi) {
		f.Cond = p.parseExpr()
	}
	p.expect(token.Semi)
	if !p.at(token.RParen) {
		f.Post = p.parseExpr()
	}
	p.expect(token.RParen)
	f.Body = p.parseStmt()
	return f
}

func (p *Parser) parseSwitch() ast.Stmt {
	pos := p.expect(token.KwSwitch).Pos
	p.expect(token.LParen)
	tag := p.parseExpr()
	p.expect(token.RParen)
	p.expect(token.LBrace)
	sw := &ast.SwitchStmt{Switch: pos, Tag: tag}
	for !p.at(token.RBrace) && !p.at(token.EOF) {
		cc := &ast.CaseClause{Case: p.cur().Pos}
		switch {
		case p.accept(token.KwCase):
			for {
				cc.Values = append(cc.Values, p.parseCondExpr())
				p.expect(token.Colon)
				if !p.accept(token.KwCase) {
					break
				}
			}
		case p.accept(token.KwDefault):
			p.expect(token.Colon)
		default:
			p.errorf(p.cur().Pos, "expected case or default in switch, found %s", p.cur())
			p.sync()
			continue
		}
		for !p.at(token.KwCase) && !p.at(token.KwDefault) && !p.at(token.RBrace) && !p.at(token.EOF) {
			// A trailing break terminates the clause; other breaks belong
			// to loops inside the clause bodies and are handled by sema.
			cc.Body = append(cc.Body, p.parseStmt())
		}
		sw.Cases = append(sw.Cases, cc)
	}
	p.expect(token.RBrace)
	return sw
}

// --------------------------------------------------------------- expressions

// The operator loops below (comma, binary, postfix) build left-leaning
// trees: every iteration nests the tree built so far one level deeper,
// so each counts as a nesting level until the loop returns.

func (p *Parser) parseExpr() ast.Expr {
	depth := p.depth
	x := p.parseAssignExpr()
	for p.at(token.Comma) {
		p.next()
		p.enter()
		y := p.parseAssignExpr()
		x = &ast.CommaExpr{X: x, Y: y}
	}
	p.depth = depth
	return x
}

func (p *Parser) parseAssignExpr() ast.Expr {
	x := p.parseCondExpr()
	if p.cur().Kind.IsAssignOp() {
		op := p.next()
		p.enter()
		y := p.parseAssignExpr()
		p.leave()
		return &ast.AssignExpr{OpPos: op.Pos, Op: op.Kind, X: x, Y: y}
	}
	return x
}

func (p *Parser) parseCondExpr() ast.Expr {
	cond := p.parseBinaryExpr(1)
	if p.accept(token.Question) {
		p.enter()
		defer p.leave()
		then := p.parseExpr()
		p.expect(token.Colon)
		els := p.parseCondExpr()
		return &ast.CondExpr{Cond: cond, Then: then, Else: els}
	}
	return cond
}

// binaryPrec returns the precedence of a binary operator, 0 if not binary.
func binaryPrec(k token.Kind) int {
	switch k {
	case token.OrOr:
		return 1
	case token.AndAnd:
		return 2
	case token.Pipe:
		return 3
	case token.Caret:
		return 4
	case token.Amp:
		return 5
	case token.EqEq, token.NotEq:
		return 6
	case token.Lt, token.Gt, token.Le, token.Ge:
		return 7
	case token.Shl, token.Shr:
		return 8
	case token.Plus, token.Minus:
		return 9
	case token.Star, token.Slash, token.Percent:
		return 10
	}
	return 0
}

func (p *Parser) parseBinaryExpr(minPrec int) ast.Expr {
	depth := p.depth
	x := p.parseUnaryExpr()
	for {
		prec := binaryPrec(p.cur().Kind)
		if prec < minPrec || prec == 0 {
			p.depth = depth
			return x
		}
		op := p.next()
		p.enter()
		y := p.parseBinaryExpr(prec + 1)
		x = &ast.BinaryExpr{OpPos: op.Pos, Op: op.Kind, X: x, Y: y}
	}
}

// parseUnaryExpr counts one nesting level, which also covers the
// parenthesized, call-argument and index expressions parsed beneath it.
func (p *Parser) parseUnaryExpr() ast.Expr {
	p.enter()
	defer p.leave()
	switch p.cur().Kind {
	case token.Plus:
		p.next()
		return p.parseUnaryExpr()
	case token.Minus, token.Bang, token.Tilde, token.Star, token.Amp:
		op := p.next()
		x := p.parseUnaryExpr()
		return &ast.UnaryExpr{OpPos: op.Pos, Op: op.Kind, X: x}
	case token.PlusPlus, token.MinusMinus:
		op := p.next()
		x := p.parseUnaryExpr()
		return &ast.UnaryExpr{OpPos: op.Pos, Op: op.Kind, X: x}
	case token.KwSizeof:
		kw := p.next()
		if p.at(token.LParen) && p.typeAfterLParen() {
			p.next()
			t := p.parseTypeName()
			p.expect(token.RParen)
			return &ast.SizeofExpr{KwPos: kw.Pos, ArgType: t}
		}
		x := p.parseUnaryExpr()
		return &ast.SizeofExpr{KwPos: kw.Pos, Arg: x}
	case token.LParen:
		if p.typeAfterLParen() {
			lp := p.next()
			t := p.parseTypeName()
			p.expect(token.RParen)
			x := p.parseUnaryExpr()
			return &ast.CastExpr{LparenPos: lp.Pos, To: t, X: x}
		}
	}
	return p.parsePostfixExpr()
}

// typeAfterLParen reports whether the token after the current '(' begins a
// type name (for casts and sizeof).
func (p *Parser) typeAfterLParen() bool {
	nxt := p.peek()
	switch nxt.Kind {
	case token.KwInt, token.KwChar, token.KwLong, token.KwVoid, token.KwStruct,
		token.KwEnum, token.KwConst, token.KwUnsigned:
		return true
	case token.Ident:
		_, ok := p.typedefs[nxt.Text]
		return ok
	}
	return false
}

// parseTypeName parses a type for casts/sizeof: specifier plus abstract
// declarator (stars and array/function suffixes without a name).
func (p *Parser) parseTypeName() types.Type {
	base := p.parseTypeSpecifier()
	if base == nil {
		p.errorf(p.cur().Pos, "expected type name")
		return types.IntType
	}
	_, t, _ := p.parseDeclarator(base)
	return t
}

func (p *Parser) parsePostfixExpr() ast.Expr {
	depth := p.depth
	x := p.parsePrimaryExpr()
	for ; ; p.enter() {
		switch p.cur().Kind {
		case token.LParen:
			lp := p.next()
			call := &ast.CallExpr{Lparen: lp.Pos, Fun: x}
			for !p.at(token.RParen) && !p.at(token.EOF) {
				call.Args = append(call.Args, p.parseAssignExpr())
				if !p.accept(token.Comma) {
					break
				}
			}
			p.expect(token.RParen)
			x = call
		case token.LBracket:
			lb := p.next()
			idx := p.parseExpr()
			p.expect(token.RBracket)
			x = &ast.IndexExpr{Lbrack: lb.Pos, X: x, Index: idx}
		case token.Dot:
			dp := p.next()
			name := p.expect(token.Ident)
			x = &ast.MemberExpr{DotPos: dp.Pos, X: x, Name: name.Text}
		case token.Arrow:
			dp := p.next()
			name := p.expect(token.Ident)
			x = &ast.MemberExpr{DotPos: dp.Pos, X: x, Name: name.Text, Arrow: true}
		case token.PlusPlus, token.MinusMinus:
			op := p.next()
			x = &ast.PostfixExpr{OpPos: op.Pos, Op: op.Kind, X: x}
		default:
			p.depth = depth
			return x
		}
	}
}

func (p *Parser) parsePrimaryExpr() ast.Expr {
	switch t := p.cur(); t.Kind {
	case token.Int:
		p.next()
		return &ast.IntLit{LitPos: t.Pos, Value: t.Val}
	case token.String:
		p.next()
		// Adjacent string literals concatenate, as in C.
		val := t.Str
		for p.at(token.String) {
			val += p.next().Str
		}
		return &ast.StrLit{LitPos: t.Pos, Value: val}
	case token.Ident:
		p.next()
		if ec, ok := p.enumConsts[t.Text]; ok {
			lit := &ast.IntLit{LitPos: t.Pos, Value: ec.Value}
			return lit
		}
		return &ast.Ident{NamePos: t.Pos, Name: t.Text}
	case token.LParen:
		p.next()
		x := p.parseExpr()
		p.expect(token.RParen)
		return x
	}
	p.errorf(p.cur().Pos, "expected expression, found %s", p.cur())
	p.next()
	return &ast.IntLit{LitPos: p.cur().Pos, Value: 0}
}
