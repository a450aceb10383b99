// Package lint implements thanoslint, a domain-specific static-analysis
// suite that mechanically enforces this repository's hardware invariants.
// The paper's guarantees are invariants, not behaviors — UFPUs take exactly
// 2 cycles and BFPUs 1 (§5.2), SMBM writes are 2-cycle fully-pipelined ops
// (§5.1), and the switch decides one packet per clock — and the software
// rendering of those guarantees ("zero allocations on the decision path",
// plus the serving stack's concurrency and protocol contracts) is enforced
// at build time by four analyzers:
//
//   - hotpathalloc:    no allocating constructs on //thanos:hotpath call graphs
//   - telemetrysafety: telemetry reachable from //thanos:hotpath roots is
//     lock-free and restricted to the hot-safe instrument API
//   - lockorder:       no lock-ordering cycles; no blocking channel ops or
//     mixed-use I/O while a lock is held
//   - wireproto:       opcode/codec/dispatch exhaustiveness and cap symmetry
//     across the server and client ends of the wire protocol
//
// Each one stays because some mutation of shipped code is caught by it and
// by no test (DESIGN.md names one per analyzer). Invariants that tests pin
// on their own have no analyzer: the paper's latency constants
// (TestLatencyContract in the root package), the engine's steering-table
// publish (the race-enabled engine suite), simulation determinism (the
// simulator goldens, the serial/parallel identity tests and the
// order-pinning tests DESIGN.md lists) and the joins that let Close wait out
// every goroutine the engine, server and client start (their Close tests).
//
// All of them stand on one call-graph layer (callgraph.go): a function
// index built once per Unit with each function's hot/cold marks, one
// call-site resolver (static calls, plus CHA for interface dispatch), and
// the hot-path walk that hotpathalloc and telemetrysafety share. The
// analyzers keep only their checks.
//
// The suite is built directly on go/ast and go/types (no external analysis
// framework) so it runs offline with nothing but the Go toolchain; the
// driver is cmd/thanoslint and the test harness mirrors analysistest's
// "// want" expectation comments.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Annotation markers recognized in function doc comments. Each marker is a
// comment line of the form "//thanos:<name> [justification]".
const (
	// MarkHotPath marks a function as part of the per-packet decision path:
	// it and everything it statically calls within the module must be free
	// of allocating constructs (checked by hotpathalloc).
	MarkHotPath = "thanos:hotpath"
	// MarkColdPath marks a reviewed slow-path helper reachable from a hot
	// path whose steady-state cost is amortized to zero (e.g. a buffer-grow
	// function). The hot-path walk stops at it; the dynamic
	// allocs-per-run regression tests cross-check the amortization claim.
	MarkColdPath = "thanos:coldpath"
)

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Analyzer is one named check over a Unit.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(u *Unit) error
}

// All is the full thanoslint suite in reporting order.
var All = []*Analyzer{HotPathAlloc, TelemetrySafety, LockOrder, WireProto}

// Unit is the analysis scope handed to every analyzer: the loaded packages
// plus configuration. Analyzers report through Reportf.
type Unit struct {
	Fset   *token.FileSet
	Pkgs   []*Package
	Config Config

	current string // name of the running analyzer
	diags   []Diagnostic
	cg      *callGraph
}

// NewUnit builds an analysis unit over the given packages.
func NewUnit(fset *token.FileSet, pkgs []*Package, cfg Config) *Unit {
	return &Unit{Fset: fset, Pkgs: pkgs, Config: cfg}
}

// graph returns the unit's call graph, built on first use and shared by
// every analyzer.
func (u *Unit) graph() *callGraph {
	if u.cg == nil {
		u.cg = newCallGraph(u)
	}
	return u.cg
}

// Reportf records a finding at pos for the running analyzer.
func (u *Unit) Reportf(pos token.Pos, format string, args ...any) {
	u.diags = append(u.diags, Diagnostic{
		Pos:      u.Fset.Position(pos),
		Analyzer: u.current,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run executes the analyzers over the unit and returns all findings sorted
// by position.
func Run(u *Unit, analyzers []*Analyzer) ([]Diagnostic, error) {
	for _, a := range analyzers {
		u.current = a.Name
		if err := a.Run(u); err != nil {
			return nil, fmt.Errorf("lint: %s: %w", a.Name, err)
		}
	}
	sort.Slice(u.diags, func(i, j int) bool {
		a, b := u.diags[i], u.diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return u.diags, nil
}

// Config parameterizes the analyzers. DefaultConfig (config.go) encodes
// this repository's real invariants; tests substitute fixture packages.
type Config struct {
	// Telemetry configures the telemetrysafety analyzer.
	Telemetry TelemetryConfig
	// Locks configures the lockorder analyzer.
	Locks LockConfig
	// Wire configures the wireproto analyzer.
	Wire WireConfig
}

// hasMark reports whether the doc comment carries the marker, alone or
// followed by a justification.
func hasMark(doc *ast.CommentGroup, mark string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		line := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if rest, ok := strings.CutPrefix(line, mark); ok {
			if rest == "" || strings.HasPrefix(rest, " ") || strings.HasPrefix(rest, "\t") {
				return true
			}
		}
	}
	return false
}

// nameInList reports whether name is one of list.
func nameInList(name string, list []string) bool {
	for _, n := range list {
		if n == name {
			return true
		}
	}
	return false
}

// pathMatchesAny reports whether the import path equals, or is a
// subdirectory of, any of the given prefixes.
func pathMatchesAny(path string, prefixes []string) bool {
	for _, p := range prefixes {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// funcDeclName returns a display name for a function declaration, including
// the receiver type for methods (e.g. "(*Engine).DecideBatch").
func funcDeclName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	return "(" + typeExprString(fd.Recv.List[0].Type) + ")." + fd.Name.Name
}

func typeExprString(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.StarExpr:
		return "*" + typeExprString(t.X)
	case *ast.IndexExpr:
		return typeExprString(t.X)
	case *ast.IndexListExpr:
		return typeExprString(t.X)
	}
	return "?"
}

// unparen strips parentheses from an expression.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// builtinName returns the name of the builtin function call invokes, or ""
// when it calls anything else. hotpathalloc and lockorder both treat a
// panic(...) statement as the end of a failure path.
func builtinName(info *types.Info, call *ast.CallExpr) string {
	id, ok := unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if _, ok := info.Uses[id].(*types.Builtin); ok {
		return id.Name
	}
	return ""
}
