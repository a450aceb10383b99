package main

import (
	"strings"
	"testing"
)

// TestRun: every cached query answer is verified exact against the server.
func TestRun(t *testing.T) {
	var b strings.Builder
	if err := run(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "(all verified exact)") {
		t.Fatalf("no verification line:\n%s", b.String())
	}
}
