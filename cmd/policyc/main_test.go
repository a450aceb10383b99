package main

import (
	"strings"
	"testing"
)

func TestRun(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		stdin  string
		code   int
		stdout string // substring
		stderr string // substring
	}{
		{"stdin policy", []string{"-schema", "util,queue,loss"}, "out best = min(table, util)\n", 0,
			`output "best" on final-stage line 1`, ""},
		{"missing schema", nil, "out best = min(table, util)\n", 2, "", "-schema is required"},
		{"parse error", []string{"-schema", "util"}, "out best = min(table,\n", 1, "", "policyc: "},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			if code := run(c.args, strings.NewReader(c.stdin), &stdout, &stderr); code != c.code {
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
}
