// Package ast defines the abstract syntax tree for MiniC programs.
// Expression nodes carry a Type field that the semantic analyzer fills in;
// the parser leaves it nil.
package ast

import (
	"inlinec/internal/token"
	"inlinec/internal/types"
)

// MaxNesting bounds how deeply the front end recurses: the parser's
// nested productions (statements, unary operators, casts, parentheses,
// assignment and conditional chains, initializers, declarators) and the
// semantic checker's walk over expressions and statements. Source
// nested deeper gets a positioned "nesting too deep" diagnostic instead
// of exhausting the Go stack.
const MaxNesting = 10000

// Node is the interface implemented by every AST node.
type Node interface {
	Pos() token.Pos
}

// ---------------------------------------------------------------- programs

// File is a parsed translation unit.
type File struct {
	Name    string
	Decls   []Decl
	Structs []*types.StructType // struct types declared in the file
}

// Decl is a top-level declaration.
type Decl interface {
	Node
	declNode()
}

// FuncDecl declares (and possibly defines) a function.
type FuncDecl struct {
	NamePos  token.Pos
	Name     string
	Type     *types.FuncType
	Params   []*VarDecl // parameter declarations, in order
	Body     *BlockStmt // nil for extern declarations
	IsExtern bool       // declared 'extern' or without a body
	IsStatic bool
}

// Pos returns the declaration position.
func (d *FuncDecl) Pos() token.Pos { return d.NamePos }
func (d *FuncDecl) declNode()      {}

// VarDecl declares a global or local variable. Init may be nil. For
// globals, Init must be a constant expression or a string literal.
type VarDecl struct {
	NamePos  token.Pos
	Name     string
	Type     types.Type
	Init     Expr
	IsExtern bool
	IsStatic bool
	IsParam  bool
}

// Pos returns the declaration position.
func (d *VarDecl) Pos() token.Pos { return d.NamePos }
func (d *VarDecl) declNode()      {}
func (d *VarDecl) stmtNode()      {}

// ------------------------------------------------------------------- stmts

// Stmt is a statement node.
type Stmt interface {
	Node
	stmtNode()
}

// BlockStmt is a brace-enclosed statement list with its own scope.
// DeclGroup marks a synthetic wrapper the parser emits for a multi-
// declarator statement like "int a, b;", which shares the enclosing scope.
type BlockStmt struct {
	Lbrace    token.Pos
	List      []Stmt
	DeclGroup bool
}

// Pos returns the opening brace position.
func (s *BlockStmt) Pos() token.Pos { return s.Lbrace }
func (s *BlockStmt) stmtNode()      {}

// ExprStmt is an expression evaluated for its side effects.
type ExprStmt struct{ X Expr }

// Pos returns the expression position.
func (s *ExprStmt) Pos() token.Pos { return s.X.Pos() }
func (s *ExprStmt) stmtNode()      {}

// EmptyStmt is a lone semicolon.
type EmptyStmt struct{ Semi token.Pos }

// Pos returns the semicolon position.
func (s *EmptyStmt) Pos() token.Pos { return s.Semi }
func (s *EmptyStmt) stmtNode()      {}

// IfStmt is if (Cond) Then else Else; Else may be nil.
type IfStmt struct {
	If   token.Pos
	Cond Expr
	Then Stmt
	Else Stmt
}

// Pos returns the if keyword position.
func (s *IfStmt) Pos() token.Pos { return s.If }
func (s *IfStmt) stmtNode()      {}

// WhileStmt is while (Cond) Body.
type WhileStmt struct {
	While token.Pos
	Cond  Expr
	Body  Stmt
}

// Pos returns the while keyword position.
func (s *WhileStmt) Pos() token.Pos { return s.While }
func (s *WhileStmt) stmtNode()      {}

// DoWhileStmt is do Body while (Cond);.
type DoWhileStmt struct {
	Do   token.Pos
	Body Stmt
	Cond Expr
}

// Pos returns the do keyword position.
func (s *DoWhileStmt) Pos() token.Pos { return s.Do }
func (s *DoWhileStmt) stmtNode()      {}

// ForStmt is for (Init; Cond; Post) Body; any clause may be nil. Init is a
// statement so it can be a declaration or an expression statement.
type ForStmt struct {
	For  token.Pos
	Init Stmt
	Cond Expr
	Post Expr
	Body Stmt
}

// Pos returns the for keyword position.
func (s *ForStmt) Pos() token.Pos { return s.For }
func (s *ForStmt) stmtNode()      {}

// ReturnStmt is return X; X may be nil.
type ReturnStmt struct {
	Return token.Pos
	X      Expr
}

// Pos returns the return keyword position.
func (s *ReturnStmt) Pos() token.Pos { return s.Return }
func (s *ReturnStmt) stmtNode()      {}

// BreakStmt is break;.
type BreakStmt struct{ Break token.Pos }

// Pos returns the break keyword position.
func (s *BreakStmt) Pos() token.Pos { return s.Break }
func (s *BreakStmt) stmtNode()      {}

// ContinueStmt is continue;.
type ContinueStmt struct{ Continue token.Pos }

// Pos returns the continue keyword position.
func (s *ContinueStmt) Pos() token.Pos { return s.Continue }
func (s *ContinueStmt) stmtNode()      {}

// GotoStmt is goto Label;.
type GotoStmt struct {
	Goto  token.Pos
	Label string
}

// Pos returns the goto keyword position.
func (s *GotoStmt) Pos() token.Pos { return s.Goto }
func (s *GotoStmt) stmtNode()      {}

// LabeledStmt is Label: Stmt.
type LabeledStmt struct {
	LabelPos token.Pos
	Label    string
	Stmt     Stmt
}

// Pos returns the label position.
func (s *LabeledStmt) Pos() token.Pos { return s.LabelPos }
func (s *LabeledStmt) stmtNode()      {}

// SwitchStmt is switch (Tag) { cases }. Cases appear in source order; a
// nil Values slice marks the default case.
type SwitchStmt struct {
	Switch token.Pos
	Tag    Expr
	Cases  []*CaseClause
}

// Pos returns the switch keyword position.
func (s *SwitchStmt) Pos() token.Pos { return s.Switch }
func (s *SwitchStmt) stmtNode()      {}

// CaseClause is one case (or default) arm of a switch. MiniC switches do
// not fall through between clauses written separately, but multiple case
// labels may share a body via Values holding several constants.
type CaseClause struct {
	Case   token.Pos
	Values []Expr // nil for default
	Body   []Stmt
}

// Pos returns the case keyword position.
func (c *CaseClause) Pos() token.Pos { return c.Case }

// ------------------------------------------------------------------- exprs

// Expr is an expression node. Type is set by the semantic analyzer.
type Expr interface {
	Node
	exprNode()
	// TypeOf returns the semantic type (nil before checking).
	TypeOf() types.Type
	// SetType records the semantic type.
	SetType(types.Type)
}

type typed struct{ t types.Type }

func (t *typed) TypeOf() types.Type   { return t.t }
func (t *typed) SetType(x types.Type) { t.t = x }

// IntLit is an integer (or character) literal.
type IntLit struct {
	typed
	LitPos token.Pos
	Value  int64
}

// Pos returns the literal position.
func (e *IntLit) Pos() token.Pos { return e.LitPos }
func (e *IntLit) exprNode()      {}

// StrLit is a string literal; it denotes a pointer to a static buffer.
type StrLit struct {
	typed
	LitPos token.Pos
	Value  string
}

// Pos returns the literal position.
func (e *StrLit) Pos() token.Pos { return e.LitPos }
func (e *StrLit) exprNode()      {}

// Ident is a use of a named variable, function, or enum constant.
type Ident struct {
	typed
	NamePos token.Pos
	Name    string
	// Ref is resolved by sema: *VarDecl, *FuncDecl, or *EnumConst.
	Ref any
}

// Pos returns the identifier position.
func (e *Ident) Pos() token.Pos { return e.NamePos }
func (e *Ident) exprNode()      {}

// EnumConst is the resolved referent of an enum constant identifier.
type EnumConst struct {
	Name  string
	Value int64
}

// UnaryExpr is a prefix operator application: - ! ~ * & ++ --.
type UnaryExpr struct {
	typed
	OpPos token.Pos
	Op    token.Kind
	X     Expr
}

// Pos returns the operator position.
func (e *UnaryExpr) Pos() token.Pos { return e.OpPos }
func (e *UnaryExpr) exprNode()      {}

// PostfixExpr is x++ or x--.
type PostfixExpr struct {
	typed
	OpPos token.Pos
	Op    token.Kind // PlusPlus or MinusMinus
	X     Expr
}

// Pos returns the operand position.
func (e *PostfixExpr) Pos() token.Pos { return e.X.Pos() }
func (e *PostfixExpr) exprNode()      {}

// BinaryExpr is a binary operator application (arithmetic, comparison,
// logical && and ||, shifts, bitwise).
type BinaryExpr struct {
	typed
	OpPos token.Pos
	Op    token.Kind
	X, Y  Expr
}

// Pos returns the left operand position.
func (e *BinaryExpr) Pos() token.Pos { return e.X.Pos() }
func (e *BinaryExpr) exprNode()      {}

// AssignExpr is X op= Y (op may be plain Assign).
type AssignExpr struct {
	typed
	OpPos token.Pos
	Op    token.Kind
	X, Y  Expr
}

// Pos returns the target position.
func (e *AssignExpr) Pos() token.Pos { return e.X.Pos() }
func (e *AssignExpr) exprNode()      {}

// CondExpr is Cond ? Then : Else.
type CondExpr struct {
	typed
	Cond, Then, Else Expr
}

// Pos returns the condition position.
func (e *CondExpr) Pos() token.Pos { return e.Cond.Pos() }
func (e *CondExpr) exprNode()      {}

// CallExpr is Fun(Args...). After sema, Direct names the called function
// when the call target is a plain function identifier; otherwise the call
// is through a pointer value.
type CallExpr struct {
	typed
	Lparen token.Pos
	Fun    Expr
	Args   []Expr
	Direct *FuncDecl // non-nil for direct calls
}

// Pos returns the callee position.
func (e *CallExpr) Pos() token.Pos { return e.Fun.Pos() }
func (e *CallExpr) exprNode()      {}

// IndexExpr is X[Index].
type IndexExpr struct {
	typed
	Lbrack token.Pos
	X      Expr
	Index  Expr
}

// Pos returns the indexed expression position.
func (e *IndexExpr) Pos() token.Pos { return e.X.Pos() }
func (e *IndexExpr) exprNode()      {}

// MemberExpr is X.Name or X->Name (Arrow true).
type MemberExpr struct {
	typed
	DotPos token.Pos
	X      Expr
	Name   string
	Arrow  bool
	Field  *types.Field // resolved by sema
}

// Pos returns the receiver position.
func (e *MemberExpr) Pos() token.Pos { return e.X.Pos() }
func (e *MemberExpr) exprNode()      {}

// SizeofExpr is sizeof(type) or sizeof expr. Exactly one of Arg/ArgType
// is set.
type SizeofExpr struct {
	typed
	KwPos   token.Pos
	Arg     Expr
	ArgType types.Type
}

// Pos returns the keyword position.
func (e *SizeofExpr) Pos() token.Pos { return e.KwPos }
func (e *SizeofExpr) exprNode()      {}

// CastExpr is (Type)X.
type CastExpr struct {
	typed
	LparenPos token.Pos
	To        types.Type
	X         Expr
}

// Pos returns the opening paren position.
func (e *CastExpr) Pos() token.Pos { return e.LparenPos }
func (e *CastExpr) exprNode()      {}

// InitListExpr is a brace-enclosed initializer list {a, b, c}, valid only
// as a variable initializer for array and struct types.
type InitListExpr struct {
	typed
	Lbrace token.Pos
	Elems  []Expr
}

// Pos returns the opening brace position.
func (e *InitListExpr) Pos() token.Pos { return e.Lbrace }
func (e *InitListExpr) exprNode()      {}

// CommaExpr is X, Y evaluated left to right, yielding Y.
type CommaExpr struct {
	typed
	X, Y Expr
}

// Pos returns the left operand position.
func (e *CommaExpr) Pos() token.Pos { return e.X.Pos() }
func (e *CommaExpr) exprNode()      {}
