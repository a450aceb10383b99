package lint

// This file is the suite's one call-graph layer: a whole-unit function index
// (built once per Unit, recording each function's //thanos:hotpath and
// //thanos:coldpath marks), one call-site resolver, and the hot-path walk
// the hot-path analyzers share. Direct calls resolve statically; interface
// dispatch resolves with class-hierarchy analysis (CHA) over every named
// type loaded into the unit, so a call through an interface such as
// server.Backend fans out to each in-module implementation. Built only on
// go/ast + go/types, it preserves the loader's offline contract: no network,
// no external analysis framework.

import (
	"go/ast"
	"go/types"
)

// graphFunc is one analyzed function body.
type graphFunc struct {
	fn   *types.Func
	decl *ast.FuncDecl
	pkg  *Package
	hot  bool // marked //thanos:hotpath
	cold bool // marked //thanos:coldpath
}

// name renders the function for findings, e.g. "engine.(*Engine).DecideBatch".
func (gf graphFunc) name() string {
	return gf.pkg.Types.Name() + "." + funcDeclName(gf.decl)
}

// callGraph indexes every declared function with a body across the unit's
// packages and resolves call expressions to their possible callees. A
// function is in the module exactly when it is in the index.
type callGraph struct {
	u     *Unit
	funcs map[*types.Func]graphFunc
	order []graphFunc // funcs in declaration order: packages, files, decls
	named []*types.Named

	chaCache map[*types.Func][]*types.Func
}

func newCallGraph(u *Unit) *callGraph {
	cg := &callGraph{
		u:        u,
		funcs:    map[*types.Func]graphFunc{},
		chaCache: map[*types.Func][]*types.Func{},
	}
	for _, pkg := range u.Pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					gf := graphFunc{fn: obj, decl: fd, pkg: pkg,
						hot: hasMark(fd.Doc, MarkHotPath), cold: hasMark(fd.Doc, MarkColdPath)}
					cg.funcs[obj] = gf
					cg.order = append(cg.order, gf)
				}
			}
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if n, ok := tn.Type().(*types.Named); ok {
				cg.named = append(cg.named, n)
			}
		}
	}
	return cg
}

// funcsIn returns the indexed functions of the packages under the given
// import-path prefixes, in declaration order.
func (cg *callGraph) funcsIn(pkgs []string) []graphFunc {
	var out []graphFunc
	for _, gf := range cg.order {
		if pathMatchesAny(gf.pkg.Path, pkgs) {
			out = append(out, gf)
		}
	}
	return out
}

// resolve maps one call expression to its callees. static is the single
// callee of a direct function or concrete method call; for interface
// dispatch, candidates holds the CHA set (in-module concrete methods whose
// receiver implements the interface); dynamic is true when the call cannot
// be resolved to one static target (interface method or function value).
func (cg *callGraph) resolve(pkg *Package, call *ast.CallExpr) (static *types.Func, candidates []*types.Func, dynamic bool) {
	switch f := unparen(call.Fun).(type) {
	case *ast.Ident:
		switch obj := pkg.Info.Uses[f].(type) {
		case *types.Func:
			return obj, nil, false
		case *types.Var:
			return nil, nil, true // function value
		}
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[f]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
					return nil, cg.chaCandidates(fn), true
				}
				return fn, nil, false
			}
			return nil, nil, true // func-typed field
		}
		if fn, ok := pkg.Info.Uses[f.Sel].(*types.Func); ok {
			return fn, nil, false // package-qualified call
		}
	}
	return nil, nil, false
}

// chaCandidates returns the in-unit concrete methods that an interface
// method call may dispatch to: for every named type implementing the
// interface, the method with the same name, when its body was loaded.
func (cg *callGraph) chaCandidates(m *types.Func) []*types.Func {
	if c, ok := cg.chaCache[m]; ok {
		return c
	}
	var out []*types.Func
	recv := m.Type().(*types.Signature).Recv()
	if recv == nil {
		cg.chaCache[m] = nil
		return nil
	}
	iface, ok := recv.Type().Underlying().(*types.Interface)
	if !ok {
		cg.chaCache[m] = nil
		return nil
	}
	for _, n := range cg.named {
		if types.IsInterface(n) {
			continue
		}
		if !types.Implements(n, iface) && !types.Implements(types.NewPointer(n), iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(n), true, m.Pkg(), m.Name())
		if fn, ok := obj.(*types.Func); ok {
			if _, loaded := cg.funcs[fn]; loaded {
				out = append(out, fn)
			}
		}
	}
	cg.chaCache[m] = out
	return out
}

// hotRoots returns the //thanos:hotpath-marked functions in declaration
// order.
func (cg *callGraph) hotRoots() []*types.Func {
	var out []*types.Func
	for _, gf := range cg.order {
		if gf.hot {
			out = append(out, gf.fn)
		}
	}
	return out
}

// walkHot is the hot-path analyzers' shared traversal. It starts from the
// hot roots in declaration order, stops at //thanos:coldpath functions and
// at functions outside the index, and visits each function once, attributed
// to the first root that reaches it (depth first). visit checks one function
// and returns the callees to follow next: the edge set is the analyzer's
// own, since what counts as a hot call differs between analyzers.
func (cg *callGraph) walkHot(visit func(gf graphFunc, root string) []*types.Func) {
	seen := map[*types.Func]bool{}
	var walk func(fn *types.Func, root string)
	walk = func(fn *types.Func, root string) {
		gf, ok := cg.funcs[fn]
		if !ok || gf.cold || seen[fn] {
			return
		}
		seen[fn] = true
		for _, callee := range visit(gf, root) {
			walk(callee, root)
		}
	}
	for _, r := range cg.hotRoots() {
		walk(r, cg.funcs[r].name())
	}
}

// refObject resolves a channel / mutex / wait-group operand expression to
// its canonical object: the field object for selector chains (the same
// *types.Var no matter which instance the selection goes through), the
// variable object for plain identifiers.
func refObject(info *types.Info, e ast.Expr) types.Object {
	switch x := unparen(e).(type) {
	case *ast.Ident:
		if obj := info.Uses[x]; obj != nil {
			return obj
		}
		return info.Defs[x]
	case *ast.SelectorExpr:
		return info.Uses[x.Sel]
	}
	return nil
}

// methodIs reports whether fn is the method pkgPath.typeName.name (receiver
// matched through one pointer indirection).
func methodIs(fn *types.Func, pkgPath, typeName, name string) bool {
	if fn == nil || fn.Name() != name || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	return ok && n.Obj().Name() == typeName
}

// selCallee returns the *types.Func a method-call selector resolves to, and
// the receiver expression, for calls of the form recv.Name(...).
func selCallee(info *types.Info, call *ast.CallExpr) (*types.Func, ast.Expr) {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, nil
	}
	if fn, ok := info.Uses[sel.Sel].(*types.Func); ok {
		return fn, sel.X
	}
	return nil, nil
}

// namedBaseName renders a display name for the type of a receiver
// expression: the named type behind pointers, or "?".
func namedBaseName(info *types.Info, e ast.Expr) string {
	t := info.TypeOf(e)
	for {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
			continue
		}
		break
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return "?"
}
