package netsim

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestSimulatorsDoNotImportEngine pins the layering: the packet simulator
// and the load balancer run one policy.Module per switch, and the sharded
// decision engine sits only behind the wire server. No non-test file under
// internal/netsim or internal/lb may import internal/engine.
func TestSimulatorsDoNotImportEngine(t *testing.T) {
	for _, root := range []string{".", "../lb"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
			if err != nil {
				return err
			}
			for _, imp := range f.Imports {
				ip, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					return err
				}
				if ip == "repro/internal/engine" {
					t.Errorf("%s imports %q: simulators take *policy.Module, not the engine", path, ip)
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}
