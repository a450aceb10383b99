package main

import (
	"regexp"
	"strings"
	"testing"
)

// fixtures is the lint suite's seeded-violation module. Under the default
// (real-tree) configuration only its //thanos:hotpath annotations bind, so
// the hotpathalloc fixture fires and the other analyzers stay clean.
const fixtures = "../../internal/lint/testdata/src"

func TestRun(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		code   int
		stdout string // regexp
		stderr string // regexp
	}{
		{"clean subset", []string{"-only", "telemetrysafety,lockorder,wireproto", fixtures},
			0, `^thanoslint: \d+ package\(s\) clean\n$`, `^$`},
		{"full suite", []string{fixtures},
			1, `^$`, `(?m)hotpathalloc: make allocates .*\n(.*\n)*thanoslint: [1-9]\d* finding\(s\)\n$`},
		{"unknown analyzer", []string{"-only", "nosuch", fixtures},
			2, `^$`, `unknown analyzer "nosuch"`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			if code := run(c.args, &stdout, &stderr); code != c.code {
				t.Fatalf("exit %d, want %d\nstderr:\n%s", code, c.code, stderr.String())
			}
			if !regexp.MustCompile(c.stdout).MatchString(stdout.String()) {
				t.Errorf("stdout %q does not match %q", stdout.String(), c.stdout)
			}
			if !regexp.MustCompile(c.stderr).MatchString(stderr.String()) {
				t.Errorf("stderr %q does not match %q", stderr.String(), c.stderr)
			}
		})
	}
}
