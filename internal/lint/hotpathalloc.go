package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotPathAlloc enforces the zero-allocation contract of the per-packet
// decision path. A function annotated //thanos:hotpath — and every function
// it statically calls within the module — may not contain allocating
// constructs:
//
//   - make / new
//   - map or slice composite literals, and &T{...} (escaping literals)
//   - growing append
//   - closures that capture variables
//   - fmt / errors calls
//   - implicit or explicit interface-boxing conversions
//   - string concatenation and string<->[]byte/[]rune conversions
//   - go statements (goroutine launch allocates a stack)
//
// Failure paths are exempt: blocks that terminate in panic(...) and
// guard-clause returns that construct a non-nil error model the hardware's
// "cannot happen at line rate" conditions, not the steady state. Traversal
// stops at functions annotated //thanos:coldpath (reviewed amortized slow
// paths, cross-checked dynamically by the allocs-per-run regression tests).
var HotPathAlloc = &Analyzer{
	Name: "hotpathalloc",
	Doc:  "no allocating constructs on //thanos:hotpath call graphs",
	Run:  runHotPathAlloc,
}

func runHotPathAlloc(u *Unit) error {
	cg := u.graph()
	cg.walkHot(func(gf graphFunc, root string) []*types.Func {
		c := &hotChecker{u: u, cg: cg, pkg: gf.pkg, fn: gf.fn, root: root}
		c.stmt(gf.decl.Body)
		return c.callees
	})
	return nil
}

// hotChecker walks one function body, reporting allocating constructs
// outside failure paths and collecting static callees in source order
// (the walk drops those outside the module).
type hotChecker struct {
	u       *Unit
	cg      *callGraph
	pkg     *Package
	fn      *types.Func
	root    string
	callees []*types.Func
}

func (c *hotChecker) report(pos token.Pos, format string, args ...any) {
	c.u.Reportf(pos, "%s (on //thanos:hotpath path from %s)", fmt.Sprintf(format, args...), c.root)
}

// --- statements ---

func (c *hotChecker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		c.stmtList(s.List)
	case *ast.ExprStmt:
		if call, ok := unparen(s.X).(*ast.CallExpr); ok && builtinName(c.pkg.Info, call) == "panic" {
			return // failure path: panic arguments are exempt
		}
		c.expr(s.X)
	case *ast.IfStmt:
		c.stmt(s.Init)
		c.expr(s.Cond)
		if !c.coldStmts(s.Body.List) {
			c.stmtList(s.Body.List)
		}
		switch e := s.Else.(type) {
		case *ast.BlockStmt:
			if !c.coldStmts(e.List) {
				c.stmtList(e.List)
			}
		case *ast.IfStmt:
			c.stmt(e)
		}
	case *ast.ReturnStmt:
		if c.coldReturn(s) {
			return
		}
		for _, e := range s.Results {
			c.expr(e)
		}
		c.checkReturnBoxing(s)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			c.expr(e)
		}
		for _, e := range s.Lhs {
			c.expr(e)
		}
		if s.Tok == token.ADD_ASSIGN && len(s.Lhs) == 1 && isStringType(c.pkg.Info.TypeOf(s.Lhs[0])) {
			c.report(s.Pos(), "string concatenation allocates")
		}
		if s.Tok == token.ASSIGN {
			c.checkAssignBoxing(s)
		}
	case *ast.IncDecStmt:
		c.expr(s.X)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						c.expr(v)
					}
					c.checkVarSpecBoxing(vs)
				}
			}
		}
	case *ast.ForStmt:
		c.stmt(s.Init)
		c.expr(s.Cond)
		c.stmt(s.Post)
		c.stmtList(s.Body.List)
	case *ast.RangeStmt:
		c.expr(s.X)
		c.stmtList(s.Body.List)
	case *ast.SwitchStmt:
		c.stmt(s.Init)
		c.expr(s.Tag)
		for _, cc := range s.Body.List {
			clause := cc.(*ast.CaseClause)
			for _, e := range clause.List {
				c.expr(e)
			}
			if !c.coldStmts(clause.Body) {
				c.stmtList(clause.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		c.stmt(s.Init)
		c.stmt(s.Assign)
		for _, cc := range s.Body.List {
			clause := cc.(*ast.CaseClause)
			if !c.coldStmts(clause.Body) {
				c.stmtList(clause.Body)
			}
		}
	case *ast.SelectStmt:
		for _, cc := range s.Body.List {
			clause := cc.(*ast.CommClause)
			c.stmt(clause.Comm)
			if !c.coldStmts(clause.Body) {
				c.stmtList(clause.Body)
			}
		}
	case *ast.SendStmt:
		c.expr(s.Chan)
		c.expr(s.Value)
	case *ast.GoStmt:
		c.report(s.Pos(), "go statement launches a goroutine (allocates a stack)")
	case *ast.DeferStmt:
		c.expr(s.Call)
	case *ast.LabeledStmt:
		c.stmt(s.Stmt)
	}
}

func (c *hotChecker) stmtList(list []ast.Stmt) {
	for _, s := range list {
		c.stmt(s)
	}
}

// coldStmts reports whether a statement list is a failure path: it
// terminates in panic(...) or in a guard-clause return that constructs a
// non-nil error.
func (c *hotChecker) coldStmts(list []ast.Stmt) bool {
	if len(list) == 0 {
		return false
	}
	switch last := list[len(list)-1].(type) {
	case *ast.ExprStmt:
		call, ok := unparen(last.X).(*ast.CallExpr)
		return ok && builtinName(c.pkg.Info, call) == "panic"
	case *ast.ReturnStmt:
		return c.coldReturn(last)
	case *ast.BlockStmt:
		return c.coldStmts(last.List)
	}
	return false
}

// coldReturn reports whether ret is an error-constructing guard-clause
// return: the enclosing function's last result is an error and the returned
// value for it is anything but the literal nil.
func (c *hotChecker) coldReturn(ret *ast.ReturnStmt) bool {
	res := c.fn.Type().(*types.Signature).Results()
	if res.Len() == 0 || len(ret.Results) != res.Len() {
		return false
	}
	if !isErrorType(res.At(res.Len() - 1).Type()) {
		return false
	}
	last := unparen(ret.Results[len(ret.Results)-1])
	if id, ok := last.(*ast.Ident); ok && id.Name == "nil" {
		return false
	}
	// Anything else, including a plain error variable ("return err")
	// propagating a failed callee, is cold.
	return true
}

// --- expressions ---

func (c *hotChecker) expr(e ast.Expr) {
	switch e := e.(type) {
	case nil:
	case *ast.CallExpr:
		c.call(e)
	case *ast.CompositeLit:
		c.composite(e)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			if cl, ok := unparen(e.X).(*ast.CompositeLit); ok {
				c.report(e.Pos(), "&%s{...} escapes to the heap", typeOfLit(c.pkg, cl))
				for _, elt := range cl.Elts {
					c.expr(elt)
				}
				return
			}
		}
		c.expr(e.X)
	case *ast.BinaryExpr:
		if e.Op == token.ADD && isStringType(c.pkg.Info.TypeOf(e)) {
			c.report(e.Pos(), "string concatenation allocates")
		}
		c.expr(e.X)
		c.expr(e.Y)
	case *ast.ParenExpr:
		c.expr(e.X)
	case *ast.SelectorExpr:
		c.expr(e.X)
	case *ast.IndexExpr:
		c.expr(e.X)
		c.expr(e.Index)
	case *ast.IndexListExpr:
		c.expr(e.X)
	case *ast.SliceExpr:
		c.expr(e.X)
		c.expr(e.Low)
		c.expr(e.High)
		c.expr(e.Max)
	case *ast.StarExpr:
		c.expr(e.X)
	case *ast.TypeAssertExpr:
		c.expr(e.X)
	case *ast.KeyValueExpr:
		c.expr(e.Key)
		c.expr(e.Value)
	case *ast.FuncLit:
		if capt := c.capturedVar(e); capt != "" {
			c.report(e.Pos(), "closure captures %q", capt)
		}
	}
}

func (c *hotChecker) composite(cl *ast.CompositeLit) {
	tv, ok := c.pkg.Info.Types[cl]
	if ok {
		switch tv.Type.Underlying().(type) {
		case *types.Slice:
			c.report(cl.Pos(), "slice literal allocates")
		case *types.Map:
			c.report(cl.Pos(), "map literal allocates")
		}
	}
	for _, elt := range cl.Elts {
		c.expr(elt)
	}
}

func (c *hotChecker) call(e *ast.CallExpr) {
	if b := builtinName(c.pkg.Info, e); b != "" {
		switch b {
		case "make":
			c.report(e.Pos(), "make allocates")
		case "new":
			c.report(e.Pos(), "new allocates")
		case "append":
			c.report(e.Pos(), "growing append may allocate")
		case "panic":
			return // failure path
		}
		for _, a := range e.Args {
			c.expr(a)
		}
		return
	}
	// Conversion?
	if tv, ok := c.pkg.Info.Types[unparen(e.Fun)]; ok && tv.IsType() && len(e.Args) == 1 {
		c.checkConversion(e, tv.Type)
		c.expr(e.Args[0])
		return
	}
	callee, _, dynamic := c.cg.resolve(c.pkg, e)
	if callee != nil {
		if p := callee.Pkg(); p != nil && (p.Path() == "fmt" || p.Path() == "errors") {
			c.report(e.Pos(), "call to %s.%s allocates", p.Name(), callee.Name())
		} else {
			c.callees = append(c.callees, callee)
		}
		if sig, ok := callee.Type().(*types.Signature); ok {
			c.checkCallBoxing(e, sig)
		}
	} else if dynamic {
		c.report(e.Pos(), "dynamic call (interface method or function value): allocation-freedom cannot be verified")
	}
	c.expr(e.Fun)
	for _, a := range e.Args {
		c.expr(a)
	}
}

// --- boxing and conversions ---

func (c *hotChecker) checkConversion(e *ast.CallExpr, target types.Type) {
	argType := c.pkg.Info.TypeOf(e.Args[0])
	if argType == nil {
		return
	}
	if types.IsInterface(target) && !types.IsInterface(argType) && !isUntypedNil(argType) {
		c.report(e.Pos(), "conversion to interface type %s boxes %s", target, argType)
		return
	}
	tu, au := target.Underlying(), argType.Underlying()
	if isStringType(tu) && isByteOrRuneSlice(au) {
		c.report(e.Pos(), "string(%s) conversion allocates", argType)
	}
	if isByteOrRuneSlice(tu) && isStringType(au) {
		c.report(e.Pos(), "%s(string) conversion allocates", target)
	}
}

func (c *hotChecker) checkCallBoxing(e *ast.CallExpr, sig *types.Signature) {
	params := sig.Params()
	for i, arg := range e.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if e.Ellipsis != token.NoPos {
				continue // xs... passes the slice through
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		at := c.pkg.Info.TypeOf(arg)
		if at == nil {
			continue
		}
		if types.IsInterface(pt) && !types.IsInterface(at) && !isUntypedNil(at) && !isTypeParam(pt) {
			c.report(arg.Pos(), "argument boxes %s into interface %s", at, pt)
		}
	}
}

func (c *hotChecker) checkAssignBoxing(s *ast.AssignStmt) {
	if len(s.Lhs) != len(s.Rhs) {
		return
	}
	for i := range s.Lhs {
		lt := c.pkg.Info.TypeOf(s.Lhs[i])
		rt := c.pkg.Info.TypeOf(s.Rhs[i])
		if lt != nil && rt != nil && types.IsInterface(lt) && !types.IsInterface(rt) && !isUntypedNil(rt) {
			c.report(s.Rhs[i].Pos(), "assignment boxes %s into interface %s", rt, lt)
		}
	}
}

func (c *hotChecker) checkVarSpecBoxing(vs *ast.ValueSpec) {
	if vs.Type == nil {
		return
	}
	lt := c.pkg.Info.TypeOf(vs.Type)
	if lt == nil || !types.IsInterface(lt) {
		return
	}
	for _, v := range vs.Values {
		rt := c.pkg.Info.TypeOf(v)
		if rt != nil && !types.IsInterface(rt) && !isUntypedNil(rt) {
			c.report(v.Pos(), "initialization boxes %s into interface %s", rt, lt)
		}
	}
}

func (c *hotChecker) checkReturnBoxing(ret *ast.ReturnStmt) {
	res := c.fn.Type().(*types.Signature).Results()
	if len(ret.Results) != res.Len() {
		return
	}
	for i, r := range ret.Results {
		rt := c.pkg.Info.TypeOf(r)
		lt := res.At(i).Type()
		if rt != nil && types.IsInterface(lt) && !types.IsInterface(rt) && !isUntypedNil(rt) {
			c.report(r.Pos(), "return boxes %s into interface %s", rt, lt)
		}
	}
}

// capturedVar returns the name of a variable the closure captures from its
// enclosing function, or "".
func (c *hotChecker) capturedVar(fl *ast.FuncLit) string {
	captured := ""
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		if captured != "" {
			return false
		}
		if sel, ok := n.(*ast.SelectorExpr); ok {
			ast.Inspect(sel.X, func(m ast.Node) bool { return c.inspectCapture(m, fl, &captured) })
			return false
		}
		return c.inspectCapture(n, fl, &captured)
	})
	return captured
}

func (c *hotChecker) inspectCapture(n ast.Node, fl *ast.FuncLit, captured *string) bool {
	id, ok := n.(*ast.Ident)
	if !ok {
		return true
	}
	v, ok := c.pkg.Info.Uses[id].(*types.Var)
	if !ok || v.IsField() {
		return true
	}
	if v.Parent() == nil || v.Parent() == types.Universe || v.Parent() == c.pkg.Types.Scope() {
		return true // package-level or universe: not a capture
	}
	if v.Pos() < fl.Pos() || v.Pos() > fl.End() {
		*captured = v.Name()
		return false
	}
	return true
}

// --- small type predicates ---

func isErrorType(t types.Type) bool {
	return t != nil && t.String() == "error" && types.IsInterface(t)
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isUntypedNil(t types.Type) bool {
	b, ok := t.(*types.Basic)
	return ok && b.Kind() == types.UntypedNil
}

func isTypeParam(t types.Type) bool {
	_, ok := t.(*types.TypeParam)
	return ok
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune || b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

func typeOfLit(pkg *Package, cl *ast.CompositeLit) string {
	if tv, ok := pkg.Info.Types[cl]; ok && tv.Type != nil {
		s := tv.Type.String()
		if i := strings.LastIndexByte(s, '/'); i >= 0 {
			s = s[i+1:]
		}
		return s
	}
	return "T"
}
