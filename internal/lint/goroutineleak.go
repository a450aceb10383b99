package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// GoroutineLeak proves a shutdown edge for every goroutine the serving stack
// spawns. For each `go` statement in the configured packages it traverses the
// spawned call tree (function literals, in-module static callees, with
// actual-argument binding for parameters) and requires at least one exit
// edge that the teardown entry points (Config.Goroutine.Roots, e.g. Close)
// provably drive:
//
//   - a receive (or channel range / select arm) on a channel that a
//     root-reachable function closes,
//   - a sync.WaitGroup.Done whose WaitGroup a root-reachable function Waits
//     on (the join makes a stuck goroutine block Close instead of leaking
//     silently), or
//   - a receive on a context.Context.Done channel (cancellation is wired by
//     the caller).
//
// Goroutines whose spawned tree contains no loop, select, or channel
// operation terminate on their own and need no edge. Root-reachability is
// computed over the call graph with go statements excluded: a close or Wait
// that only happens on some other goroutine does not count as a drain path.
var GoroutineLeak = &Analyzer{
	Name: "goroutineleak",
	Doc:  "every spawned goroutine has a shutdown edge reachable from Close",
	Run:  runGoroutineLeak,
}

// GoroutineConfig scopes the goroutineleak analyzer.
type GoroutineConfig struct {
	// Pkgs are the import-path prefixes whose go statements are checked.
	Pkgs []string
	// Roots are the teardown entry points, by declared function name
	// (methods match on the bare name).
	Roots []string
}

func runGoroutineLeak(u *Unit) error {
	cfg := u.Config.Goroutine
	if len(cfg.Pkgs) == 0 {
		return nil
	}
	cg := u.graph()
	roots := cg.rootsNamed(cfg.Pkgs, cfg.Roots)
	gl := &leakChecker{
		cg:     cg,
		closed: map[types.Object]bool{},
		waited: map[types.Object]bool{},
	}
	gl.collectDrainEvidence(cg.reachable(roots))

	for _, gf := range cg.funcsIn(cfg.Pkgs) {
		ast.Inspect(gf.decl.Body, func(n ast.Node) bool {
			if g, ok := n.(*ast.GoStmt); ok {
				gl.checkSpawn(u, gf.pkg, g, strings.Join(cfg.Roots, "/"))
			}
			return true
		})
	}
	return nil
}

type leakChecker struct {
	cg     *callGraph
	closed map[types.Object]bool // channels closed on a root-reachable path
	waited map[types.Object]bool // WaitGroups joined on a root-reachable path
}

// collectDrainEvidence records every close(ch) and WaitGroup.Wait the
// teardown roots reach without crossing a go statement.
func (gl *leakChecker) collectDrainEvidence(reach map[*types.Func]bool) {
	for fn := range reach {
		gf := gl.cg.funcs[fn]
		ast.Inspect(gf.decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				return false // not on the drain path
			case *ast.CallExpr:
				if id, ok := unparen(n.Fun).(*ast.Ident); ok && len(n.Args) == 1 {
					if _, isB := gf.pkg.Info.Uses[id].(*types.Builtin); isB && id.Name == "close" {
						if obj := refObject(gf.pkg.Info, n.Args[0]); obj != nil {
							gl.closed[obj] = true
						}
					}
				}
				if fn, recv := selCallee(gf.pkg.Info, n); methodIs(fn, "sync", "WaitGroup", "Wait") {
					if obj := refObject(gf.pkg.Info, recv); obj != nil {
						gl.waited[obj] = true
					}
				}
			}
			return true
		})
	}
}

// spawnScan accumulates what one go statement's spawned tree contains.
type spawnScan struct {
	mayRunForever bool // loops, selects, or channel ops anywhere in the tree
	exitEdge      bool // a provable shutdown edge was found
	unresolved    bool // the spawned function itself could not be resolved
}

func (gl *leakChecker) checkSpawn(u *Unit, pkg *Package, g *ast.GoStmt, rootNames string) {
	scan := &spawnScan{}
	visited := map[*types.Func]bool{}
	switch fun := unparen(g.Call.Fun).(type) {
	case *ast.FuncLit:
		subst := gl.bindLit(pkg, fun, g.Call.Args, nil)
		gl.scanBody(pkg, fun.Body, subst, visited, scan)
	default:
		static, _, _ := gl.cg.resolve(pkg, g.Call)
		if static == nil {
			scan.unresolved = true
			break
		}
		gl.scanCallee(static, g.Call.Args, pkg, nil, visited, scan)
	}
	switch {
	case scan.unresolved:
		u.Reportf(g.Pos(), "go statement spawns an unresolvable function value: shutdown edge cannot be proven")
	case scan.mayRunForever && !scan.exitEdge:
		u.Reportf(g.Pos(), "goroutine has no shutdown edge reachable from %s: no receive on a root-closed channel, WaitGroup join, or context cancel on its paths", rootNames)
	}
}

// bindLit maps a function literal's parameters to the objects behind the
// call arguments (resolved through the caller's own substitution).
func (gl *leakChecker) bindLit(pkg *Package, lit *ast.FuncLit, args []ast.Expr, outer map[*types.Var]types.Object) map[*types.Var]types.Object {
	sig, ok := pkg.Info.TypeOf(lit).(*types.Signature)
	if !ok {
		return outer
	}
	return bindParams(pkg, sig, args, outer)
}

// scanCallee descends into an in-module static callee with parameters bound
// to the caller's arguments.
func (gl *leakChecker) scanCallee(fn *types.Func, args []ast.Expr, callerPkg *Package, callerSubst map[*types.Var]types.Object, visited map[*types.Func]bool, scan *spawnScan) {
	gf, ok := gl.cg.funcs[fn]
	if !ok || visited[fn] {
		return
	}
	visited[fn] = true
	sig, _ := fn.Type().(*types.Signature)
	subst := bindParams(callerPkg, sig, args, callerSubst)
	gl.scanBody(gf.pkg, gf.decl.Body, subst, visited, scan)
}

func bindParams(pkg *Package, sig *types.Signature, args []ast.Expr, outer map[*types.Var]types.Object) map[*types.Var]types.Object {
	if sig == nil {
		return nil
	}
	subst := map[*types.Var]types.Object{}
	params := sig.Params()
	for i := 0; i < params.Len() && i < len(args); i++ {
		arg := unparen(args[i])
		if ue, ok := arg.(*ast.UnaryExpr); ok {
			arg = unparen(ue.X) // &x passes x by reference
		}
		obj := refObject(pkg.Info, arg)
		if v, ok := obj.(*types.Var); ok && outer != nil {
			if o, bound := outer[v]; bound {
				obj = o
			}
		}
		if obj != nil {
			subst[params.At(i)] = obj
		}
	}
	return subst
}

// scanBody walks one body in the spawned tree, recording loops/channel ops
// and exit-edge evidence, and recursing into function-literal arguments and
// in-module callees.
func (gl *leakChecker) scanBody(pkg *Package, body ast.Node, subst map[*types.Var]types.Object, visited map[*types.Func]bool, scan *spawnScan) {
	resolve := func(e ast.Expr) types.Object {
		obj := refObject(pkg.Info, unparen(e))
		if v, ok := obj.(*types.Var); ok && subst != nil {
			if o, bound := subst[v]; bound {
				return o
			}
		}
		return obj
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			return false // nested spawns are their own check sites
		case *ast.ForStmt:
			scan.mayRunForever = true
		case *ast.SelectStmt:
			scan.mayRunForever = true
		case *ast.SendStmt:
			scan.mayRunForever = true
		case *ast.RangeStmt:
			scan.mayRunForever = true
			if t := pkg.Info.TypeOf(n.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan && gl.closed[resolve(n.X)] {
					scan.exitEdge = true
				}
			}
		case *ast.UnaryExpr:
			if n.Op != token.ARROW {
				return true
			}
			scan.mayRunForever = true
			if gl.closed[resolve(n.X)] {
				scan.exitEdge = true
			}
			// <-ctx.Done(): cancellation wired by the caller.
			if call, ok := unparen(n.X).(*ast.CallExpr); ok {
				if fn, _ := selCallee(pkg.Info, call); methodIs(fn, "context", "Context", "Done") {
					scan.exitEdge = true
				}
			}
		case *ast.CallExpr:
			if fn, recv := selCallee(pkg.Info, n); methodIs(fn, "sync", "WaitGroup", "Done") {
				if gl.waited[resolve(recv)] {
					scan.exitEdge = true
				}
			}
			// Function-literal arguments are walked by the enclosing Inspect
			// (they run on this goroutine); static in-module callees recurse
			// with parameters bound to the arguments.
			if static, _, _ := gl.cg.resolve(pkg, n); static != nil {
				if _, inModule := gl.cg.funcs[static]; inModule {
					gl.scanCallee(static, n.Args, pkg, subst, visited, scan)
				}
			}
		}
		return true
	})
}
