package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// TelemetrySafety enforces the telemetry layer's hot-path contract. The
// telemetry package promises that instrumentation on the per-packet
// decision path is lock-free and confined to a small audited API; this
// analyzer proves both halves over every //thanos:hotpath call graph:
//
//  1. Entry discipline: a call from hot non-telemetry code into the
//     telemetry package must target a function on the HotSafe allowlist
//     (Counter.Inc, Histogram.Observe, SpanRing.Record, ...). Anything else
//     — registration, export, snapshotting — is control-plane API and must
//     not appear on the decision path.
//  2. Lock freedom: telemetry-package functions reachable from a hot root
//     may not acquire sync primitives (Mutex/RWMutex Lock family,
//     WaitGroup.Wait, Once.Do, Cond waits) or perform channel operations.
//
// The lock rule is deliberately scoped to the telemetry package: the
// engine's own hot entry points serialize producers with a mutex by
// design, which is their contract to keep — but an instrument must never
// add blocking to a path that was lock-free without it.
//
// hotpathalloc independently bans allocation on the same graphs, so
// between the two analyzers a telemetry increment is proven both
// allocation- and lock-free, statically.
var TelemetrySafety = &Analyzer{
	Name: "telemetrysafety",
	Doc:  "telemetry calls on //thanos:hotpath graphs are lock-free and restricted to the hot-safe API",
	Run:  runTelemetrySafety,
}

// TelemetryConfig scopes the telemetrysafety analyzer.
type TelemetryConfig struct {
	// Pkg is the import path (prefix) of the telemetry package.
	Pkg string
	// HotSafe lists the telemetry functions hot code may call, by declared
	// name (e.g. "(*Counter).Inc").
	HotSafe []string
}

func runTelemetrySafety(u *Unit) error {
	cfg := u.Config.Telemetry
	if cfg.Pkg == "" {
		return nil
	}
	hotSafe := map[string]bool{}
	for _, n := range cfg.HotSafe {
		hotSafe[n] = true
	}

	inTelemetry := func(path string) bool {
		return pathMatchesAny(path, []string{cfg.Pkg})
	}
	cg := u.graph()
	cg.walkHot(func(gf graphFunc, root string) []*types.Func {
		c := &telemetryChecker{
			u:       u,
			cg:      cg,
			pkg:     gf.pkg,
			root:    root,
			inTel:   inTelemetry(gf.pkg.Path),
			isTel:   inTelemetry,
			hotSafe: hotSafe,
		}
		c.walk(gf.decl.Body)
		return c.callees
	})
	return nil
}

// telemetryChecker walks one hot function body. inTel marks whether the
// function itself lives in the telemetry package (lock-freedom rule);
// otherwise only its calls into the telemetry package are screened against
// the allowlist.
type telemetryChecker struct {
	u       *Unit
	cg      *callGraph
	pkg     *Package
	root    string
	inTel   bool
	isTel   func(path string) bool
	hotSafe map[string]bool
	callees []*types.Func
}

func (c *telemetryChecker) report(pos token.Pos, format string, args ...any) {
	c.u.Reportf(pos, format+" (on //thanos:hotpath path from "+c.root+")", args...)
}

// blockingSyncMethods are the sync methods that park or spin the caller.
// Unlock/Done are included: their presence implies the matching acquire
// and has no business inside a lock-free instrument either.
var blockingSyncMethods = map[string]bool{
	"Lock": true, "TryLock": true, "RLock": true, "TryRLock": true,
	"Unlock": true, "RUnlock": true,
	"Wait": true, "Do": true, "Done": true, "Add": true,
}

func (c *telemetryChecker) walk(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			// Closures defined here run who-knows-where; hotpathalloc
			// already bans capturing closures on hot paths. Skip.
			return false
		case *ast.SendStmt:
			if c.inTel {
				c.report(n.Pos(), "telemetry hot path performs a channel send: must be lock- and block-free")
			}
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && c.inTel {
				c.report(n.Pos(), "telemetry hot path performs a channel receive: must be lock- and block-free")
			}
		case *ast.SelectStmt:
			if c.inTel {
				c.report(n.Pos(), "telemetry hot path uses select: must be lock- and block-free")
			}
		case *ast.CallExpr:
			c.call(n)
		}
		return true
	})
}

func (c *telemetryChecker) call(e *ast.CallExpr) {
	fn, _, _ := c.cg.resolve(c.pkg, e)
	if fn == nil || fn.Pkg() == nil {
		return
	}
	path := fn.Pkg().Path()
	if c.inTel && path == "sync" && blockingSyncMethods[fn.Name()] {
		c.report(e.Pos(), "telemetry hot path calls sync.%s: telemetry must be lock-free on the decision path", fn.Name())
		return
	}
	if c.isTel(path) && !c.inTel {
		name := funcDisplayName(fn)
		if !c.hotSafe[name] {
			c.report(e.Pos(), "call to telemetry function %s is not on the hot-safe allowlist", name)
		}
	}
	// Follow every static callee; the walk keeps those in the module,
	// including the telemetry package, so a nominally hot-safe entry that
	// internally blocks is still caught.
	c.callees = append(c.callees, fn)
}

// funcDisplayName renders a *types.Func the way funcDeclName renders its
// declaration: "(*Counter).Inc" for pointer methods, "Name" for plain
// functions.
func funcDisplayName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return fn.Name()
	}
	t := sig.Recv().Type()
	star := ""
	if p, ok := t.(*types.Pointer); ok {
		star = "*"
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return "(" + star + named.Obj().Name() + ")." + fn.Name()
	}
	return fn.Name()
}
