package lint

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestLinterStdlibOnly pins the toolchain contract: the analyzers and the
// thanoslint driver build from the standard library alone. The call-graph
// layer deliberately reimplements the small slice of go/ssa+CHA it needs on
// go/ast + go/types instead of depending on golang.org/x/tools, so `make
// check` works on an offline builder with nothing but the Go toolchain. If
// an import of x/tools (or any other module) sneaks in, this fails before
// CI's module download would.
func TestLinterStdlibOnly(t *testing.T) {
	for _, dir := range []string{".", "../../cmd/thanoslint"} {
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, ent := range entries {
			if ent.IsDir() || !strings.HasSuffix(ent.Name(), ".go") {
				continue
			}
			path := filepath.Join(dir, ent.Name())
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, imp := range f.Imports {
				ip, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					t.Fatalf("%s: %v", path, err)
				}
				if strings.HasPrefix(ip, "repro/") {
					continue // in-module
				}
				// Stdlib packages have no dot in their first path element;
				// anything with a domain name is an external module.
				if first, _, _ := strings.Cut(ip, "/"); strings.Contains(first, ".") {
					t.Errorf("%s imports %q: the linter must stay stdlib-only (no external modules)", path, ip)
				}
			}
		}
	}
}
