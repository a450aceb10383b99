// Command benchmark is this repository's benchmark: four named workloads over
// the served path (client, wire, server, engine, interpreter, bitvec/SMBM)
// and the simulator, end-to-end metrics from an untraced run, and a per-layer
// ledger from a separate traced run, all measured from outside at public
// boundaries. See README.md beside this file.
//
//	benchmark -workload serve_wire -seed 1 -seconds 25 -trace 0
//	benchmark -workload all -out runs.json
//	benchmark -compare a.json b.json
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// defaultSeed is the pinned seed of the committed baseline.
const defaultSeed = 1

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 25

func main() {
	workload := flag.String("workload", "", "workload name, or all")
	seed := flag.Int64("seed", defaultSeed, "input seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", defaultSeconds, "measured window in seconds")
	trace := flag.Int("trace", 0, "1 runs the shorter traced run that yields the per-layer ledger")
	out := flag.String("out", "", "append the run to this result file (a set of runs for -compare)")
	compare := flag.Bool("compare", false, "compare two result files: -compare a.json b.json")
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(2, "usage: -compare a.json b.json")
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	case *workload == "all":
		os.Exit(runAll(*seed, *seconds, *trace, *out))
	default:
		w := findWorkload(*workload)
		if w == nil {
			fatal(2, "unknown workload %q; have %v and all", *workload, allWorkloads())
		}
		if *seconds <= 0 || (*trace != 0 && *trace != 1) {
			fatal(2, "-seconds must be positive and -trace 0 or 1")
		}
		os.Exit(runOne(w, *seed, *seconds, *trace == 1, *out))
	}
}

// runOne runs one workload in this process. The report goes to standard
// error; the last line of standard output is the driver's JSON object. The
// exit code is non-zero on any wrong answer, failure or invalid run.
func runOne(w *workloadSpec, seed int64, seconds float64, traced bool, out string) int {
	r, err := runWorkload(w, seed, seconds, traced)
	if err != nil {
		fatal(1, "%s: %v", w.Name, err)
	}
	r.print(os.Stderr)
	if out != "" {
		if err := appendResult(out, r); err != nil {
			fatal(1, "%v", err)
		}
	}
	if !r.Valid {
		fmt.Fprintf(os.Stderr, "benchmark: %s: invalid run, nothing reported\n", w.Name)
		return 1
	}
	line, err := r.driverLine()
	if err != nil {
		fatal(1, "%v", err)
	}
	fmt.Printf("%s\n", line)
	if r.Failed != 0 {
		return 1
	}
	return 0
}

// runAll runs the workloads in order, each in a fresh process so that
// set-up time and peak RSS belong to one workload.
func runAll(seed int64, seconds float64, trace int, out string) int {
	self, err := os.Executable()
	if err != nil {
		fatal(1, "%v", err)
	}
	code := 0
	for _, name := range allWorkloads() {
		args := []string{"-workload", name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace)}
		if out != "" {
			args = append(args, "-out", out)
		}
		cmd := exec.Command(self, args...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", name, err)
			code = 1
		}
	}
	return code
}

func fatal(code int, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(code)
}
