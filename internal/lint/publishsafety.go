package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// PublishSafety guards values published to lock-free readers through an
// atomic pointer — in the real tree the engine's steering table, which
// DecideBatch loads once per batch. It derives the set of fields of the
// configured types the //thanos:hotpath code actually reads by traversing
// the hot call graph, then proves every write to such a field
// happens-before the publish:
//
//   - outside the configured publish protocol (AllowFuncs) no hot-read
//     field is ever assigned;
//   - inside the protocol, once a value has been handed to the publish
//     pointer's atomic Store (Config.Publish.PublishFields, e.g. steer), no
//     hot-read field of that same object is written afterwards. The check is
//     object-sensitive: only writes through the Store argument are ordered
//     after a reader may observe them and get flagged; a sibling value that
//     was never published may still be mutated.
//
// A reader loads the pointer and trusts that what it points to never changes
// again.
var PublishSafety = &Analyzer{
	Name: "publishsafety",
	Doc:  "hot-read fields of atomically published values are only written before the publish",
	Run:  runPublishSafety,
}

// PublishConfig scopes the publishsafety analyzer.
type PublishConfig struct {
	// Pkg is the import path of the package holding the published types.
	Pkg string
	// Types names the struct types published by atomic pointer.
	Types []string
	// AllowFuncs are the construction/publish functions permitted to write
	// their fields at all (matched by declared function name).
	AllowFuncs []string
	// PublishFields are the atomic publish-pointer field names whose Store
	// is the happens-before edge (e.g. "steer"). Stores to other atomics are
	// not publishes.
	PublishFields []string
}

func runPublishSafety(u *Unit) error {
	cfg := u.Config.Publish
	if cfg.Pkg == "" || len(cfg.Types) == 0 {
		return nil
	}
	cg := u.graph()
	hotRead := hotReadFields(cg, cfg)
	for _, gf := range cg.funcsIn([]string{cfg.Pkg}) {
		if nameInList(gf.decl.Name.Name, cfg.AllowFuncs) {
			checkPublishOrder(u, gf.pkg, gf.decl, cfg, hotRead)
		} else {
			checkNoWrites(u, gf.pkg, gf.decl, cfg, hotRead)
		}
	}
	return nil
}

func nameInList(name string, list []string) bool {
	for _, n := range list {
		if n == name {
			return true
		}
	}
	return false
}

// hotReadFields walks the call graph from every //thanos:hotpath-marked
// function (go statements excluded: the hot path runs on one goroutine) and
// collects the snapshot fields it reads, keyed by field object.
func hotReadFields(cg *callGraph, cfg PublishConfig) map[types.Object]bool {
	hot := map[types.Object]bool{}
	for fn := range cg.reachable(cg.hotRoots(), false) {
		gf := cg.funcs[fn]
		ast.Inspect(gf.decl.Body, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if isSnapshotExpr(gf.pkg.Info, sel.X, cfg) {
				if obj := gf.pkg.Info.Uses[sel.Sel]; obj != nil {
					hot[obj] = true
				}
			}
			return true
		})
	}
	return hot
}

// isSnapshotExpr reports whether e's type (through pointers) is one of the
// configured snapshot types in the configured package.
func isSnapshotExpr(info *types.Info, e ast.Expr, cfg PublishConfig) bool {
	t := info.TypeOf(e)
	for {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
			continue
		}
		break
	}
	n, ok := t.(*types.Named)
	if !ok || n.Obj().Pkg() == nil || n.Obj().Pkg().Path() != cfg.Pkg {
		return false
	}
	return nameInList(n.Obj().Name(), cfg.Types)
}

// checkNoWrites flags any assignment to a hot-read snapshot field outside
// the publish protocol.
func checkNoWrites(u *Unit, pkg *Package, fd *ast.FuncDecl, cfg PublishConfig, hotRead map[types.Object]bool) {
	forEachFieldWrite(pkg, fd.Body, cfg, hotRead, func(sel *ast.SelectorExpr, pos token.Pos) {
		u.Reportf(pos, "hot-read snapshot field %s written outside the publish protocol (allowed: %s)",
			sel.Sel.Name, strings.Join(cfg.AllowFuncs, ", "))
	})
}

// checkPublishOrder enforces the happens-before edge inside a publish
// function: after a snapshot value is passed to a publish pointer's Store,
// no hot-read field may be written through that value.
func checkPublishOrder(u *Unit, pkg *Package, fd *ast.FuncDecl, cfg PublishConfig, hotRead map[types.Object]bool) {
	// First pass: the publish sites — which object was stored, and where.
	published := map[types.Object]token.Pos{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		field, arg, ok := atomicStore(pkg.Info, call)
		if !ok || !nameInList(field, cfg.PublishFields) || len(call.Args) == 0 {
			return true
		}
		if obj := refObject(pkg.Info, arg); obj != nil {
			if _, seen := published[obj]; !seen {
				published[obj] = call.Pos()
			}
		}
		return true
	})
	if len(published) == 0 {
		return
	}
	// Second pass: writes through a published object after its Store.
	forEachFieldWrite(pkg, fd.Body, cfg, hotRead, func(sel *ast.SelectorExpr, pos token.Pos) {
		base := baseIdent(sel.X)
		if base == nil {
			return
		}
		obj := refObject(pkg.Info, base)
		storePos, wasPublished := published[obj]
		if wasPublished && pos > storePos {
			u.Reportf(pos, "snapshot field %s written through %s after its epoch publish (the reader may already be executing it)",
				sel.Sel.Name, base.Name)
		}
	})
}

// forEachFieldWrite calls fn for every assignment or inc/dec whose target is
// a hot-read field of a snapshot type.
func forEachFieldWrite(pkg *Package, body ast.Node, cfg PublishConfig, hotRead map[types.Object]bool, fn func(sel *ast.SelectorExpr, pos token.Pos)) {
	check := func(e ast.Expr) {
		sel, ok := unparen(e).(*ast.SelectorExpr)
		if !ok || !isSnapshotExpr(pkg.Info, sel.X, cfg) {
			return
		}
		if obj := pkg.Info.Uses[sel.Sel]; obj != nil && hotRead[obj] {
			fn(sel, sel.Pos())
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				check(lhs)
			}
		case *ast.IncDecStmt:
			check(n.X)
		}
		return true
	})
}

// atomicStore matches recv.Store(arg) on a sync/atomic value and returns the
// receiver's field/variable name and the stored argument.
func atomicStore(info *types.Info, call *ast.CallExpr) (field string, arg ast.Expr, ok bool) {
	sel, isSel := unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel || len(call.Args) != 1 {
		return "", nil, false
	}
	fn, isFn := info.Uses[sel.Sel].(*types.Func)
	if !isFn || fn.Name() != "Store" || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return "", nil, false
	}
	switch recv := unparen(sel.X).(type) {
	case *ast.SelectorExpr:
		return recv.Sel.Name, call.Args[0], true
	case *ast.Ident:
		return recv.Name, call.Args[0], true
	}
	return "", nil, false
}
