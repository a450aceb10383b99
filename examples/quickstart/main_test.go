package main

import (
	"strings"
	"testing"
)

// TestRun: only the two healthy servers take connections, and once server 0
// degrades the next placement goes to server 3.
func TestRun(t *testing.T) {
	var b strings.Builder
	if err := run(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, line := range []string{
		"  server 1: 0\n",
		"  server 2: 0\n",
		"after server 0 degrades, next placement: server 3\n",
	} {
		if !strings.Contains(out, line) {
			t.Errorf("output lacks %q:\n%s", line, out)
		}
	}
	for _, line := range []string{"  server 0: 0\n", "  server 3: 0\n"} {
		if strings.Contains(out, line) {
			t.Errorf("a healthy server took no connection (%q):\n%s", line, out)
		}
	}
}
