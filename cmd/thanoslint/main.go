// Command thanoslint runs the repository's domain-specific static-analysis
// suite (internal/lint) over a module tree and exits nonzero on any finding.
//
// Usage:
//
//	thanoslint [-debug] [-only names] [module-root]
//
// module-root defaults to the current directory and must contain go.mod.
// -debug additionally treats the thanosdebug build tag as satisfied, so the
// assertion-enabled variants of the hardware models are analyzed too.
// -only restricts the run to a comma-separated subset of analyzer names
// (e.g. -only lockorder,wireproto while iterating on one analyzer).
//
// Exit status: 0 when clean, 1 on any finding, 2 on a usage or load error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, analyzes the module and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("thanoslint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	debug := fs.Bool("debug", false, "analyze with the thanosdebug build tag satisfied")
	only := fs.String("only", "", "comma-separated analyzer names to run (default: all)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2 // the flag set has printed the error and usage
	}
	dir := "."
	if fs.NArg() > 0 {
		dir = fs.Arg(0)
	}
	analyzers, err := selectAnalyzers(*only)
	if err != nil {
		fmt.Fprintln(stderr, "thanoslint:", err)
		return 2
	}
	diags, npkgs, err := analyze(dir, *debug, analyzers)
	if err != nil {
		fmt.Fprintln(stderr, "thanoslint:", err)
		return 2
	}
	if len(diags) > 0 {
		for _, d := range diags {
			fmt.Fprintln(stderr, d)
		}
		fmt.Fprintf(stderr, "thanoslint: %d finding(s)\n", len(diags))
		return 1
	}
	fmt.Fprintf(stdout, "thanoslint: %d package(s) clean\n", npkgs)
	return 0
}

// selectAnalyzers filters lint.All by the -only flag.
func selectAnalyzers(only string) ([]*lint.Analyzer, error) {
	if only == "" {
		return lint.All, nil
	}
	byName := map[string]*lint.Analyzer{}
	for _, a := range lint.All {
		byName[a.Name] = a
	}
	var out []*lint.Analyzer
	for _, name := range strings.Split(only, ",") {
		name = strings.TrimSpace(name)
		a, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// analyze loads every package under dir and runs the analyzers over them,
// returning the findings and the number of packages loaded.
func analyze(dir string, debug bool, analyzers []*lint.Analyzer) ([]lint.Diagnostic, int, error) {
	l, err := lint.NewLoader(dir)
	if err != nil {
		return nil, 0, err
	}
	if debug {
		l.Tags["thanosdebug"] = true
	}
	pkgs, err := l.LoadAll()
	if err != nil {
		return nil, 0, err
	}
	diags, err := lint.Run(lint.NewUnit(l.Fset, pkgs, lint.DefaultConfig()), analyzers)
	return diags, len(pkgs), err
}
