package main

import (
	"strings"
	"testing"
)

// TestRun: once flow 9 slows down, the firewall blacklists flows 5 and 7.
func TestRun(t *testing.T) {
	var b strings.Builder
	if err := run(&b); err != nil {
		t.Fatal(err)
	}
	if want := "after flow 9 slows down, blacklist: [5 7]\n"; !strings.HasSuffix(b.String(), want) {
		t.Fatalf("output does not end with %q:\n%s", want, b.String())
	}
}
