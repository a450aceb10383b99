package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRun(t *testing.T) {
	metrics := filepath.Join(t.TempDir(), "engine.prom")
	cases := []struct {
		name   string
		args   []string
		code   int
		stdout string // substring
		stderr string // substring
	}{
		{"table1", []string{"-exp", "table1"}, 0, "Table 1: SMBM clock rates and chip area", ""},
		{"engine metrics", []string{"-engine", "-quick", "-shards", "1", "-metrics", metrics}, 0, "Instrumented engine run (shards=1", ""},
		{"unknown flag", []string{"-trace", "x"}, 2, "", "flag provided but not defined: -trace"},
		{"unknown experiment", []string{"-exp", "nosuch"}, 2, "", `unknown experiment "nosuch"`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			if code := run(c.args, &stdout, &stderr); code != c.code {
				t.Fatalf("exit %d, want %d\nstderr:\n%s", code, c.code, stderr.String())
			}
			if !strings.Contains(stdout.String(), c.stdout) {
				t.Errorf("stdout %q does not contain %q", stdout.String(), c.stdout)
			}
			if !strings.Contains(stderr.String(), c.stderr) {
				t.Errorf("stderr %q does not contain %q", stderr.String(), c.stderr)
			}
		})
	}
	prom, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(prom), "thanos_engine_chain_step0_candidates_total") {
		t.Errorf("-metrics output lacks the chain step counters:\n%s", prom)
	}
}
