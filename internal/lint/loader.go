package lint

import (
	"fmt"
	"go/ast"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// Loader loads and type-checks the packages of a single Go module without
// any toolchain dependency beyond the standard library. Module-local import
// paths are resolved against the module root; standard-library imports are
// delegated to the source importer, which type-checks GOROOT from source and
// therefore works offline. The loader memoizes packages, so a whole-module
// load type-checks every package (and every transitively imported standard
// package) exactly once.
type Loader struct {
	Fset *token.FileSet
	// ModuleRoot is the directory containing go.mod.
	ModuleRoot string
	// ModulePath is the module path declared in go.mod.
	ModulePath string
	// Tags are extra build tags considered satisfied (e.g. "thanosdebug").
	Tags map[string]bool

	std   types.Importer
	pkgs  map[string]*Package
	stack []string // in-progress loads, for import-cycle reporting
}

// Package is one loaded, type-checked package.
type Package struct {
	// Path is the package's import path (or the synthetic path given to
	// LoadDir for test fixtures).
	Path string
	// Dir is the directory the package was loaded from.
	Dir string
	// Files are the parsed non-test source files, in file-name order.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info holds the type-checker's recorded facts for Files.
	Info *types.Info
}

// NewLoader returns a loader for the module rooted at dir (the directory
// holding go.mod).
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("lint: module root %s: %w", abs, err)
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("lint: no module directive in %s/go.mod", abs)
	}
	l := &Loader{
		Fset:       token.NewFileSet(),
		ModuleRoot: abs,
		ModulePath: modPath,
		Tags:       map[string]bool{},
		pkgs:       map[string]*Package{},
	}
	l.std = importer.ForCompiler(l.Fset, "source", nil)
	return l, nil
}

// Import implements types.Importer: module-local paths load through the
// loader itself, everything else falls through to the standard library's
// source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		p, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

// Load loads (or returns the memoized) module package with the given import
// path.
func (l *Loader) Load(path string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	for _, s := range l.stack {
		if s == path {
			return nil, fmt.Errorf("lint: import cycle through %s", path)
		}
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModulePath), "/")
	dir := filepath.Join(l.ModuleRoot, filepath.FromSlash(rel))
	return l.LoadDir(dir, path)
}

// LoadDir parses and type-checks the package in dir, registering it under
// importPath. It is the entry point both for module packages and for
// analyzer test fixtures under testdata (which the go tool ignores but the
// loader can address directly).
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	if p, ok := l.pkgs[importPath]; ok {
		return p, nil
	}
	l.stack = append(l.stack, importPath)
	defer func() { l.stack = l.stack[:len(l.stack)-1] }()

	names, err := l.sourceFiles(dir)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("lint: no buildable Go files in %s", dir)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(importPath, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", importPath, err)
	}
	p := &Package{Path: importPath, Dir: dir, Files: files, Types: tpkg, Info: info}
	l.pkgs[importPath] = p
	return p, nil
}

// LoadAll walks the module tree and loads every buildable package, returning
// them sorted by import path. Directories named testdata, vendor, or starting
// with "." or "_" are skipped, as the go tool does.
func (l *Loader) LoadAll() ([]*Package, error) {
	var dirs []string
	err := filepath.WalkDir(l.ModuleRoot, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != l.ModuleRoot && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		names, err := l.sourceFiles(path)
		if err != nil {
			return err
		}
		if len(names) > 0 {
			dirs = append(dirs, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(dirs)
	var pkgs []*Package
	for _, dir := range dirs {
		rel, err := filepath.Rel(l.ModuleRoot, dir)
		if err != nil {
			return nil, err
		}
		path := l.ModulePath
		if rel != "." {
			path = l.ModulePath + "/" + filepath.ToSlash(rel)
		}
		p, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// sourceFiles returns the buildable non-test Go file names in dir, sorted.
func (l *Loader) sourceFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		ok, err := l.fileMatchesBuild(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		if ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names, nil
}

// fileMatchesBuild evaluates the file's build constraints (//go:build lines
// and GOOS/GOARCH name suffixes) against the loader's tag set plus the
// current platform.
func (l *Loader) fileMatchesBuild(path string) (bool, error) {
	if !l.nameMatchesPlatform(filepath.Base(path)) {
		return false, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return false, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		trimmed := strings.TrimSpace(line)
		if trimmed == "" || strings.HasPrefix(trimmed, "//") {
			if constraint.IsGoBuild(trimmed) {
				expr, err := constraint.Parse(trimmed)
				if err != nil {
					return false, fmt.Errorf("lint: %s: %w", path, err)
				}
				return expr.Eval(l.tagSatisfied), nil
			}
			continue
		}
		break // reached the package clause (or other code): no constraint
	}
	return true, nil
}

func (l *Loader) tagSatisfied(tag string) bool {
	if l.Tags[tag] {
		return true
	}
	switch tag {
	case runtime.GOOS, runtime.GOARCH, "unix", "gc":
		return tag != "unix" || isUnixGOOS(runtime.GOOS)
	}
	// Assume the running toolchain satisfies all go1.x version tags.
	return strings.HasPrefix(tag, "go1.")
}

func isUnixGOOS(goos string) bool {
	switch goos {
	case "linux", "darwin", "freebsd", "netbsd", "openbsd", "solaris", "aix", "dragonfly", "illumos", "ios":
		return true
	}
	return false
}

// nameMatchesPlatform applies the _GOOS/_GOARCH file-name constraint rule.
func (l *Loader) nameMatchesPlatform(name string) bool {
	base := strings.TrimSuffix(name, ".go")
	parts := strings.Split(base, "_")
	if len(parts) < 2 {
		return true
	}
	last := parts[len(parts)-1]
	prev := ""
	if len(parts) >= 3 {
		prev = parts[len(parts)-2]
	}
	if knownArch[last] {
		if last != runtime.GOARCH {
			return false
		}
		if knownOS[prev] && prev != runtime.GOOS {
			return false
		}
		return true
	}
	if knownOS[last] {
		return last == runtime.GOOS
	}
	return true
}

var knownOS = map[string]bool{
	"aix": true, "android": true, "darwin": true, "dragonfly": true, "freebsd": true,
	"illumos": true, "ios": true, "js": true, "linux": true, "netbsd": true,
	"openbsd": true, "plan9": true, "solaris": true, "wasip1": true, "windows": true,
}

var knownArch = map[string]bool{
	"386": true, "amd64": true, "arm": true, "arm64": true, "loong64": true,
	"mips": true, "mips64": true, "mips64le": true, "mipsle": true, "ppc64": true,
	"ppc64le": true, "riscv64": true, "s390x": true, "wasm": true,
}
