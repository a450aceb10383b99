package main

import (
	"strings"
	"testing"
)

// TestRun: the report has one FCT line per routing policy.
func TestRun(t *testing.T) {
	var b strings.Builder
	if err := run(&b); err != nil {
		t.Fatal(err)
	}
	var fct []string
	for _, line := range strings.Split(b.String(), "\n") {
		if strings.Contains(line, "mean FCT") {
			fct = append(fct, line)
		}
	}
	if len(fct) != 3 {
		t.Fatalf("%d FCT lines, want 3:\n%s", len(fct), b.String())
	}
	for i, pol := range []string{"policy1-random", "policy2-minutil", "policy3-multidim"} {
		if !strings.Contains(fct[i], pol) {
			t.Errorf("FCT line %d is %q, want policy %s", i, fct[i], pol)
		}
	}
}
