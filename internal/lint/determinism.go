package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Determinism enforces that the simulation/datapath packages are replayable:
// given the same inputs and seeds, every run produces bit-identical output.
// Three sources of hidden nondeterminism are rejected in the configured
// packages:
//
//   - wall clock: time.Now / time.Since / time.Until. Measurement harnesses
//     may opt out per function with "//thanos:wallclock <justification>";
//     the justification is mandatory.
//   - the global math/rand generator (package-level Intn, Float64, Shuffle,
//     ...), whose state is shared and seeding is process-global. Local
//     generators (rand.New(rand.NewSource(seed))) are fine.
//   - map iteration whose order can reach output. A conservative taint walk
//     over each map-range body flags order-carrying effects (appends that are
//     not sorted afterwards, calls or returns or sends involving the
//     iteration variables, assignments that leak the last-visited entry)
//     while permitting the standard order-insensitive idioms: commutative
//     accumulation, writes keyed by the iteration variables, delete, constant
//     flag sets, and collect-then-sort.
var Determinism = &Analyzer{
	Name: "determinism",
	Doc:  "no wall clock, global math/rand, or map-iteration-order leaks in datapath packages",
	Run:  runDeterminism,
}

func runDeterminism(u *Unit) error {
	for _, pkg := range u.Pkgs {
		if !pathMatchesAny(pkg.Path, u.Config.DeterminismPkgs) {
			continue
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					marked, just := hasMark(d.Doc, MarkWallClock)
					if marked && just == "" {
						u.Reportf(d.Pos(), "//thanos:wallclock requires a justification ( //thanos:wallclock <why> )")
					}
					if d.Body != nil {
						checkClockAndRand(u, pkg, d.Body, marked)
						checkMapRanges(u, pkg, d)
					}
				case *ast.GenDecl:
					checkClockAndRand(u, pkg, d, false)
				}
			}
		}
	}
	return nil
}

// checkClockAndRand flags wall-clock and global-rand calls under n.
// wallClockOK exempts the time.* rule (function carries //thanos:wallclock).
// Methods (e.g. on a local *rand.Rand) and the constructors for local
// generators are allowed.
func checkClockAndRand(u *Unit, pkg *Package, n ast.Node, wallClockOK bool) {
	cg := u.graph()
	ast.Inspect(n, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn, _, _ := cg.resolve(pkg, call)
		if fn == nil || fn.Pkg() == nil || fn.Type().(*types.Signature).Recv() != nil {
			return true
		}
		switch name := fn.Name(); fn.Pkg().Path() {
		case "time":
			if !wallClockOK && (name == "Now" || name == "Since" || name == "Until") {
				u.Reportf(call.Pos(), "time.%s is nondeterministic; inject a hw.Clock, or annotate the measurement harness //thanos:wallclock <why>", name)
			}
		case "math/rand", "math/rand/v2":
			switch name {
			case "New", "NewSource", "NewZipf", "NewPCG", "NewChaCha8":
			default:
				u.Reportf(call.Pos(), "global math/rand.%s has process-shared state; use a seeded local generator (rand.New(rand.NewSource(seed)))", name)
			}
		}
		return true
	})
}

// --- map-range order analysis ---

func checkMapRanges(u *Unit, pkg *Package, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		if !isMapType(pkg.Info.TypeOf(rng.X)) {
			return true
		}
		rc := &rangeChecker{
			u: u, pkg: pkg, fd: fd, rng: rng,
			taint:   map[types.Object]bool{},
			appends: map[types.Object][]token.Pos{},
		}
		rc.computeTaint()
		rc.stmtList(rng.Body.List)
		rc.checkAppendsSorted()
		return true // nested ranges are visited independently
	})
}

func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Map)
	return ok
}

// rangeChecker scans one map-range body for effects through which iteration
// order can escape.
type rangeChecker struct {
	u   *Unit
	pkg *Package
	fd  *ast.FuncDecl
	rng *ast.RangeStmt
	// taint holds objects whose values depend on the iteration variables.
	taint map[types.Object]bool
	// appends maps an outer slice variable to the positions of in-range
	// appends to it; each needs a post-range sort to erase the order.
	appends map[types.Object][]token.Pos
}

func (rc *rangeChecker) objOf(id *ast.Ident) types.Object {
	if o := rc.pkg.Info.Defs[id]; o != nil {
		return o
	}
	return rc.pkg.Info.Uses[id]
}

// computeTaint seeds the taint set with the iteration variables and
// propagates through assignments inside the body (two passes reach a
// fixpoint for the straight-line chains that occur in practice).
func (rc *rangeChecker) computeTaint() {
	for _, e := range []ast.Expr{rc.rng.Key, rc.rng.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if o := rc.objOf(id); o != nil {
				rc.taint[o] = true
			}
		}
	}
	for pass := 0; pass < 2; pass++ {
		ast.Inspect(rc.rng.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				rc.propagateAssign(n)
			case *ast.RangeStmt:
				// Ranging over a tainted container taints its variables.
				if n != rc.rng && rc.mentionsTaint(n.X) {
					for _, e := range []ast.Expr{n.Key, n.Value} {
						if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
							if o := rc.objOf(id); o != nil {
								rc.taint[o] = true
							}
						}
					}
				}
			case *ast.ValueSpec:
				for i, name := range n.Names {
					if i < len(n.Values) && rc.mentionsTaint(n.Values[i]) {
						if o := rc.objOf(name); o != nil {
							rc.taint[o] = true
						}
					}
				}
			}
			return true
		})
	}
}

func (rc *rangeChecker) propagateAssign(s *ast.AssignStmt) {
	tainted := false
	for _, r := range s.Rhs {
		if rc.mentionsTaint(r) {
			tainted = true
			break
		}
	}
	if !tainted {
		return
	}
	for _, l := range s.Lhs {
		if id, ok := unparen(l).(*ast.Ident); ok && id.Name != "_" {
			if o := rc.objOf(id); o != nil {
				rc.taint[o] = true
			}
		}
	}
}

func (rc *rangeChecker) mentionsTaint(e ast.Expr) bool {
	if e == nil {
		return false
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		if id, ok := n.(*ast.Ident); ok {
			if o := rc.objOf(id); o != nil && rc.taint[o] {
				found = true
			}
		}
		return true
	})
	return found
}

// declaredOutside reports whether the object is declared outside the range
// body (so a last-writer-wins assignment to it leaks iteration order).
func (rc *rangeChecker) declaredOutside(o types.Object) bool {
	return o != nil && (o.Pos() < rc.rng.Body.Pos() || o.Pos() > rc.rng.Body.End())
}

// --- effect classification ---

func (rc *rangeChecker) stmtList(list []ast.Stmt) {
	for _, s := range list {
		rc.stmt(s)
	}
}

func (rc *rangeChecker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		rc.stmtList(s.List)
	case *ast.IfStmt:
		rc.stmt(s.Init)
		rc.stmt(s.Body)
		rc.stmt(s.Else)
	case *ast.ForStmt:
		rc.stmt(s.Init)
		rc.stmt(s.Post)
		rc.stmt(s.Body)
	case *ast.RangeStmt:
		rc.stmt(s.Body)
	case *ast.SwitchStmt:
		rc.stmt(s.Init)
		for _, cc := range s.Body.List {
			rc.stmtList(cc.(*ast.CaseClause).Body)
		}
	case *ast.TypeSwitchStmt:
		rc.stmt(s.Init)
		for _, cc := range s.Body.List {
			rc.stmtList(cc.(*ast.CaseClause).Body)
		}
	case *ast.LabeledStmt:
		rc.stmt(s.Stmt)
	case *ast.AssignStmt:
		rc.assign(s)
	case *ast.IncDecStmt:
		// x++ / x-- accumulate commutatively.
	case *ast.ExprStmt:
		rc.exprStmt(s.X)
	case *ast.GoStmt:
		rc.checkCall(s.Call)
	case *ast.DeferStmt:
		rc.checkCall(s.Call)
	case *ast.SendStmt:
		rc.u.Reportf(s.Pos(), "channel send inside map range delivers values in map-iteration order")
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			if rc.mentionsTaint(r) {
				rc.u.Reportf(s.Pos(), "return of a map-iteration-dependent value: which entry is returned depends on map order")
				break
			}
		}
	}
}

// commutativeAssignOps accumulate order-independently (on numeric types).
var commutativeAssignOps = map[token.Token]bool{
	token.ADD_ASSIGN: true, token.SUB_ASSIGN: true, token.MUL_ASSIGN: true,
	token.OR_ASSIGN: true, token.AND_ASSIGN: true, token.XOR_ASSIGN: true,
}

func (rc *rangeChecker) assign(s *ast.AssignStmt) {
	if commutativeAssignOps[s.Tok] {
		if s.Tok == token.ADD_ASSIGN && len(s.Lhs) == 1 && isStringType(rc.pkg.Info.TypeOf(s.Lhs[0])) {
			rc.u.Reportf(s.Pos(), "string concatenation in map-iteration order")
		}
		return
	}
	if s.Tok == token.DEFINE {
		return // declares body-local variables; tracked by taint only
	}
	if s.Tok != token.ASSIGN {
		// Remaining compound ops (/=, %=, <<=, >>=, &^=) are not
		// order-independent accumulators; treat like plain assignment.
	}
	for i, l := range s.Lhs {
		var rhs ast.Expr
		if len(s.Rhs) == len(s.Lhs) {
			rhs = s.Rhs[i]
		} else if len(s.Rhs) == 1 {
			rhs = s.Rhs[0]
		}
		rc.assignTarget(s, l, rhs)
	}
}

func (rc *rangeChecker) assignTarget(s *ast.AssignStmt, l, rhs ast.Expr) {
	switch lhs := unparen(l).(type) {
	case *ast.IndexExpr:
		// m2[k] = v keyed by an iteration variable is order-independent;
		// writes indexed independently of the key collapse entries
		// nondeterministically.
		if rc.mentionsTaint(lhs.Index) {
			return
		}
		if rc.mentionsTaint(rhs) {
			rc.u.Reportf(s.Pos(), "write indexed independently of the iteration key: last-visited map entry wins")
		}
	default:
		base := baseIdent(l)
		if base == nil || base.Name == "_" {
			return
		}
		obj := rc.objOf(base)
		if obj == nil || !rc.declaredOutside(obj) {
			return // body-local: value dies with the iteration
		}
		// s = append(s, ...) collects entries; legal if sorted afterwards.
		if call, ok := unparen(rhs).(*ast.CallExpr); ok {
			if id, isID := unparen(call.Fun).(*ast.Ident); isID && id.Name == "append" {
				if _, isBuiltin := rc.pkg.Info.Uses[id].(*types.Builtin); isBuiltin && len(call.Args) > 0 {
					if tgt := baseIdent(call.Args[0]); tgt != nil && rc.objOf(tgt) == obj {
						rc.appends[obj] = append(rc.appends[obj], s.Pos())
						return
					}
				}
			}
		}
		// Idempotent flag set (found = true) is order-independent.
		if rhs != nil {
			if tv, ok := rc.pkg.Info.Types[rhs]; ok && tv.Value != nil {
				return
			}
		}
		if rc.mentionsTaint(rhs) {
			rc.u.Reportf(s.Pos(), "assignment to %s leaks map iteration order: the last-visited entry wins", base.Name)
		}
	}
}

func (rc *rangeChecker) exprStmt(e ast.Expr) {
	call, ok := unparen(e).(*ast.CallExpr)
	if !ok {
		return
	}
	rc.checkCall(call)
}

func (rc *rangeChecker) checkCall(call *ast.CallExpr) {
	if id, ok := unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := rc.pkg.Info.Uses[id].(*types.Builtin); isBuiltin {
			switch id.Name {
			case "delete", "panic", "print", "println", "copy", "clear", "min", "max", "len", "cap":
				// delete(m, k) is the idiomatic filtered-removal pattern;
				// panic is a failure path; the rest have no ordered output.
				return
			}
		}
	}
	if rc.mentionsTaint(call.Fun) {
		rc.u.Reportf(call.Pos(), "method call on a map-iteration-dependent receiver inside map range")
		return
	}
	for _, a := range call.Args {
		if rc.mentionsTaint(a) {
			rc.u.Reportf(call.Pos(), "call with a map-iteration-dependent argument: effects occur in map order")
			return
		}
	}
}

// checkAppendsSorted verifies each collected append target is passed to a
// sort/slices call after the range ends; collect-then-sort erases iteration
// order.
func (rc *rangeChecker) checkAppendsSorted() {
	for obj, positions := range rc.appends {
		if rc.sortedAfter(obj) {
			continue
		}
		for _, pos := range positions {
			rc.u.Reportf(pos, "append to %s in map-iteration order is never sorted afterwards", obj.Name())
		}
	}
}

func (rc *rangeChecker) sortedAfter(obj types.Object) bool {
	sorted := false
	ast.Inspect(rc.fd.Body, func(n ast.Node) bool {
		if sorted {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rc.rng.End() {
			return true
		}
		sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := rc.pkg.Info.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, a := range call.Args {
			if id := baseIdent(a); id != nil && rc.objOf(id) == obj {
				sorted = true
				return false
			}
		}
		return true
	})
	return sorted
}
