package main

import (
	"regexp"
	"strconv"
	"strings"
	"testing"
)

func TestRunFlagErrors(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		stderr string
	}{
		{"no target", nil, "-addr or -spawn required"},
		{"bad flag", []string{"-nosuch"}, "flag provided but not defined"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			if code := run(c.args, &stdout, &stderr); code != 2 {
				t.Fatalf("exit %d, want 2\nstderr:\n%s", code, stderr.String())
			}
			if !strings.Contains(stderr.String(), c.stderr) {
				t.Errorf("stderr %q does not contain %q", stderr.String(), c.stderr)
			}
		})
	}
}

// TestRunSpawn drives a short window against an in-process server and
// checks that decisions were made and reported.
func TestRunSpawn(t *testing.T) {
	var stdout, stderr strings.Builder
	args := []string{"-spawn", "-duration", "200ms", "-conns", "1", "-inflight", "1", "-resources", "64"}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, want 0\nstderr:\n%s", code, stderr.String())
	}
	m := regexp.MustCompile(`\((\d+) decisions, `).FindStringSubmatch(stdout.String())
	if m == nil {
		t.Fatalf("stdout reports no decision count:\n%s", stdout.String())
	}
	if n, _ := strconv.ParseUint(m[1], 10, 64); n == 0 {
		t.Errorf("no decisions in the window:\n%s", stdout.String())
	}
	if !strings.Contains(stdout.String(), "decisions/s") {
		t.Errorf("stdout lacks the decisions/s figure:\n%s", stdout.String())
	}
}
