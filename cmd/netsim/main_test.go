package main

import (
	"regexp"
	"strings"
	"testing"
)

// wallClock matches the one host-timing field of the report; everything
// else is simulation output and must repeat byte for byte.
var wallClock = regexp.MustCompile(`wall clock: \S+`)

func TestRunSmoke(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"clos-multidim", []string{"-policy", "multidim", "-flows", "40", "-scale", "0.1"}},
		{"fattree-long-core", []string{"-topo", "fattree", "-core-delay", "10us", "-flows", "40", "-scale", "0.1"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var outs [2]string
			for i := range outs {
				var b strings.Builder
				if err := run(c.args, &b); err != nil {
					t.Fatalf("run %v: %v", c.args, err)
				}
				outs[i] = wallClock.ReplaceAllString(b.String(), "wall clock: -")
			}
			if !strings.Contains(outs[0], "FCT µs: mean") {
				t.Fatalf("no FCT line in output:\n%s", outs[0])
			}
			if outs[0] != outs[1] {
				t.Fatalf("two runs differ:\n%s\n---\n%s", outs[0], outs[1])
			}
		})
	}
}
