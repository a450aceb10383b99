package lint

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// WireProto enforces exhaustiveness and end-to-end symmetry for the wire
// protocol package:
//
//   - every Op* constant is classified: a request (key of Pairs), a reply
//     (value of Pairs), or a universal reply (Reject/Err);
//   - every opcode has its encoder Append<Name>, and every opcode with a
//     body has its decoder Decode<Name>, in the wire package;
//   - every server-side dispatch switch over request opcodes (a switch whose
//     cases reference two or more request constants) covers all of them, so
//     adding an opcode without teaching the server is a build-time error;
//   - the client handles every reply opcode (references the constant in its
//     demux/return paths) and uses every request encoder;
//   - frame/batch caps stay in lockstep on both ends: the designated cap
//     arguments (Config.Wire.CapArgs) must be one of the shared cap
//     constants, zero ("use the default"), or a runtime value — never an
//     unrelated literal that would let one side accept frames the other
//     rejects.
var WireProto = &Analyzer{
	Name: "wireproto",
	Doc:  "opcode/codec/dispatch exhaustiveness and cap symmetry for the wire protocol",
	Run:  runWireProto,
}

// WireConfig scopes the wireproto analyzer.
type WireConfig struct {
	// Pkg is the wire protocol package (opcode constants + codecs).
	Pkg string
	// ServerPkgs hold the server dispatch switches.
	ServerPkgs []string
	// ClientPkg holds the client demux.
	ClientPkg string
	// CapPkgs are additional packages (beyond ClientPkg) whose cap
	// arguments are checked.
	CapPkgs []string
	// Pairs maps request opcode const name -> reply opcode const name.
	Pairs map[string]string
	// Universal are reply opcodes valid for any request (Reject, Err).
	Universal []string
	// Bodyless are opcodes whose frames carry no body (no decoder needed).
	Bodyless []string
	// CapConsts are the shared cap constant names (MaxPayload, MaxBatch).
	CapConsts []string
	// CapArgs maps a codec/reader function name to the index of its cap
	// argument.
	CapArgs map[string]int
	// Flags are count-word flag constants (e.g. a trace bit riding on the
	// high bits of the u16 count). Each must be declared in the wire package
	// with a value strictly greater than the CountCap constant — so a flagged
	// count can never collide with a legal plain count — and below 1<<16 so
	// it fits the count word at all.
	Flags []string
	// CountCap is the batch-cap constant flag values are checked against.
	CountCap string
}

func runWireProto(u *Unit) error {
	cfg := u.Config.Wire
	if cfg.Pkg == "" {
		return nil
	}
	var wire *Package
	for _, pkg := range u.Pkgs {
		if pkg.Path == cfg.Pkg {
			wire = pkg
			break
		}
	}
	if wire == nil {
		return nil
	}

	ops := opcodeConsts(wire)
	funcs := declaredFuncs(wire)
	checkClassification(u, cfg, ops)
	checkCodecs(u, cfg, ops, funcs)
	checkDispatch(u, cfg, ops)
	checkClient(u, cfg, ops, funcs)
	checkCaps(u, cfg, wire)
	checkFlags(u, cfg, wire)
	return nil
}

// opcodeConst is one Op* constant declaration in the wire package.
type opcodeConst struct {
	name string
	obj  types.Object
	pos  token.Pos
}

func opcodeConsts(wire *Package) []opcodeConst {
	var out []opcodeConst
	for _, f := range wire.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					if !strings.HasPrefix(name.Name, "Op") || len(name.Name) <= 2 {
						continue
					}
					if obj := wire.Info.Defs[name]; obj != nil {
						out = append(out, opcodeConst{name: name.Name, obj: obj, pos: name.Pos()})
					}
				}
			}
		}
	}
	return out
}

func declaredFuncs(wire *Package) map[string]*ast.FuncDecl {
	out := map[string]*ast.FuncDecl{}
	for _, f := range wire.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
				out[fd.Name.Name] = fd
			}
		}
	}
	return out
}

func checkClassification(u *Unit, cfg WireConfig, ops []opcodeConst) {
	classified := map[string]bool{}
	for req, rep := range cfg.Pairs {
		classified[req] = true
		classified[rep] = true
	}
	for _, n := range cfg.Universal {
		classified[n] = true
	}
	for _, op := range ops {
		if !classified[op.name] {
			u.Reportf(op.pos, "opcode %s is not classified as a request, reply, or universal reply in the wire contract", op.name)
		}
	}
}

func checkCodecs(u *Unit, cfg WireConfig, ops []opcodeConst, funcs map[string]*ast.FuncDecl) {
	for _, op := range ops {
		base := strings.TrimPrefix(op.name, "Op")
		if _, ok := funcs["Append"+base]; !ok {
			u.Reportf(op.pos, "opcode %s has no encoder Append%s in the wire package", op.name, base)
		}
		if nameInList(op.name, cfg.Bodyless) {
			continue
		}
		if _, ok := funcs["Decode"+base]; !ok {
			u.Reportf(op.pos, "opcode %s has no decoder Decode%s in the wire package", op.name, base)
		}
	}
}

// checkDispatch finds every switch in the server packages whose case labels
// reference at least two request opcode constants and requires it to cover
// all of them: a dispatch switch that special-cases a subset silently drops
// the rest on the floor.
func checkDispatch(u *Unit, cfg WireConfig, ops []opcodeConst) {
	requests := map[types.Object]string{}
	for _, op := range ops {
		if _, isReq := cfg.Pairs[op.name]; isReq {
			requests[op.obj] = op.name
		}
	}
	if len(requests) < 2 {
		return
	}
	for _, pkg := range u.Pkgs {
		if !pathMatchesAny(pkg.Path, cfg.ServerPkgs) {
			continue
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				sw, ok := n.(*ast.SwitchStmt)
				if !ok {
					return true
				}
				covered := map[types.Object]bool{}
				for _, cc := range sw.Body.List {
					for _, label := range cc.(*ast.CaseClause).List {
						if obj := refObject(pkg.Info, label); obj != nil {
							if _, isReq := requests[obj]; isReq {
								covered[obj] = true
							}
						}
					}
				}
				if len(covered) < 2 {
					return true // not a request dispatch switch
				}
				var missing []string
				for obj, name := range requests {
					if !covered[obj] {
						missing = append(missing, name)
					}
				}
				sort.Strings(missing)
				for _, name := range missing {
					u.Reportf(sw.Pos(), "request dispatch switch has no arm for %s", name)
				}
				return true
			})
		}
	}
}

// checkClient verifies the client side of the symmetry: every reply opcode
// is referenced (the demux must recognize it) and every request encoder is
// called (a request the client cannot send is dead protocol surface).
func checkClient(u *Unit, cfg WireConfig, ops []opcodeConst, funcs map[string]*ast.FuncDecl) {
	if cfg.ClientPkg == "" {
		return
	}
	var client *Package
	for _, pkg := range u.Pkgs {
		if pkg.Path == cfg.ClientPkg {
			client = pkg
			break
		}
	}
	if client == nil {
		return
	}
	used := map[types.Object]bool{}
	for _, obj := range client.Info.Uses {
		used[obj] = true
	}
	replies := map[string]bool{}
	for _, rep := range cfg.Pairs {
		replies[rep] = true
	}
	for _, n := range cfg.Universal {
		replies[n] = true
	}
	for _, op := range ops {
		if replies[op.name] && !used[op.obj] {
			u.Reportf(op.pos, "reply opcode %s is never handled by the client demux (%s)", op.name, cfg.ClientPkg)
		}
		if _, isReq := cfg.Pairs[op.name]; !isReq {
			continue
		}
		base := strings.TrimPrefix(op.name, "Op")
		enc, ok := funcs["Append"+base]
		if !ok {
			continue // already reported by checkCodecs
		}
		// Find the encoder's declared object to test for client usage.
		encObj := opObjOfDecl(u, cfg.Pkg, enc)
		if encObj != nil && !used[encObj] {
			u.Reportf(enc.Pos(), "request encoder Append%s is never used by the client (%s)", base, cfg.ClientPkg)
		}
	}
}

func opObjOfDecl(u *Unit, pkgPath string, fd *ast.FuncDecl) types.Object {
	for _, pkg := range u.Pkgs {
		if pkg.Path != pkgPath {
			continue
		}
		if obj := pkg.Info.Defs[fd.Name]; obj != nil {
			return obj
		}
	}
	return nil
}

// checkCaps enforces cap symmetry at call sites: the designated cap argument
// of each reader/decoder must be a shared cap constant, zero, or a runtime
// value. A foreign constant means one end enforces a different limit than
// the other.
func checkCaps(u *Unit, cfg WireConfig, wire *Package) {
	capObjs := map[types.Object]bool{}
	for _, name := range cfg.CapConsts {
		obj := wire.Types.Scope().Lookup(name)
		if obj == nil {
			// Report once, at the package's first file.
			if len(wire.Files) > 0 {
				u.Reportf(wire.Files[0].Pos(), "cap constant %s is not declared in %s", name, cfg.Pkg)
			}
			continue
		}
		capObjs[obj] = true
	}
	cg := u.graph()
	scopes := append([]string{cfg.Pkg, cfg.ClientPkg}, cfg.CapPkgs...)
	for _, pkg := range u.Pkgs {
		if !pathMatchesAny(pkg.Path, scopes) {
			continue
		}
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fnObj, _, _ := cg.resolve(pkg, call)
				if fnObj == nil || fnObj.Pkg() == nil || fnObj.Pkg().Path() != cfg.Pkg {
					return true
				}
				idx, tracked := cfg.CapArgs[fnObj.Name()]
				if !tracked || idx >= len(call.Args) {
					return true
				}
				arg := unparen(call.Args[idx])
				tv, ok := pkg.Info.Types[arg]
				if !ok || tv.Value == nil {
					return true // runtime value: configured caps are fine
				}
				if obj := refObject(pkg.Info, arg); obj != nil && capObjs[obj] {
					return true
				}
				if tv.Value.Kind() == constant.Int {
					if v, exact := constant.Int64Val(tv.Value); exact && v == 0 {
						return true // zero selects the shared default
					}
				}
				u.Reportf(arg.Pos(), "cap argument to %s is a local constant; use %s so both ends enforce the same limit",
					fnObj.Name(), strings.Join(cfg.CapConsts, " or "))
				return true
			})
		}
	}
}

// checkFlags verifies count-word flag constants: every configured flag must
// be declared in the wire package, exceed the count cap (so setting the flag
// can never be mistaken for a legal count), and fit the u16 count word. This
// pins the wire invariant that makes in-band trace flags safe to decode.
func checkFlags(u *Unit, cfg WireConfig, wire *Package) {
	if len(cfg.Flags) == 0 || cfg.CountCap == "" {
		return
	}
	reportPkg := func(format string, args ...any) {
		if len(wire.Files) > 0 {
			u.Reportf(wire.Files[0].Pos(), format, args...)
		}
	}
	capObj, _ := wire.Types.Scope().Lookup(cfg.CountCap).(*types.Const)
	if capObj == nil {
		reportPkg("count cap constant %s is not declared in %s", cfg.CountCap, cfg.Pkg)
		return
	}
	capVal, exact := constant.Int64Val(constant.ToInt(capObj.Val()))
	if !exact {
		reportPkg("count cap constant %s is not an integer constant", cfg.CountCap)
		return
	}
	for _, name := range cfg.Flags {
		fl, _ := wire.Types.Scope().Lookup(name).(*types.Const)
		if fl == nil {
			reportPkg("flag constant %s is not declared in %s", name, cfg.Pkg)
			continue
		}
		v, exact := constant.Int64Val(constant.ToInt(fl.Val()))
		if !exact {
			u.Reportf(fl.Pos(), "flag constant %s is not an integer constant", name)
			continue
		}
		if v <= capVal {
			u.Reportf(fl.Pos(), "flag constant %s (%#x) collides with legal counts: it must exceed %s (%d)",
				name, v, cfg.CountCap, capVal)
		}
		if v >= 1<<16 {
			u.Reportf(fl.Pos(), "flag constant %s (%#x) does not fit the u16 count word", name, v)
		}
	}
}
