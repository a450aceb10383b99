// Command policyc compiles a Thanos filter policy (from a .policy file or
// stdin) onto the programmable pipeline and prints the resulting
// configuration: per-stage crossbar sources and cell opcodes, output line
// assignment, latency, and the modeled area/clock of the module — the
// compile-time step §5.3.2 performs before deployment.
//
// Usage:
//
//	policyc -schema cpu,mem,bw policy.txt
//	echo 'out best = min(table, util)' | policyc -schema util,queue,loss
//	policyc -schema util -n 8 -k 6 -chain 8 deep.policy
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/asic"
	"repro/internal/filter"
	"repro/internal/pipeline"
	"repro/internal/policy"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run executes one policyc invocation, reading the policy from the file
// named in args or else from stdin, and returns its exit code: 2 for a bad
// flag or a missing -schema, 1 for an unreadable, unparsable or
// uncompilable policy.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("policyc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	schemaFlag := fs.String("schema", "", "comma-separated attribute names (required)")
	capacity := fs.Int("capacity", 128, "resource table capacity N")
	n := fs.Int("n", 4, "pipeline inputs per stage")
	f := fs.Int("f", 2, "output fan-out")
	k := fs.Int("k", 4, "pipeline stages")
	chain := fs.Int("chain", 4, "K-UFPU chain length")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2 // the flag set has printed the error and usage
	}

	if *schemaFlag == "" {
		fmt.Fprintln(stderr, "policyc: -schema is required")
		return 2
	}
	schema := policy.Schema{Attrs: strings.Split(*schemaFlag, ",")}

	src, err := readSource(fs.Args(), stdin)
	if err != nil {
		fmt.Fprintf(stderr, "policyc: %v\n", err)
		return 1
	}
	pol, err := policy.Parse(src)
	if err != nil {
		fmt.Fprintf(stderr, "policyc: %v\n", err)
		return 1
	}
	params := pipeline.Params{Inputs: *n, Fanout: *f, Stages: *k, ChainLen: *chain}
	cc, err := policy.Compile(pol, schema, params)
	if err != nil {
		fmt.Fprintf(stderr, "policyc: %v\n", err)
		return 1
	}
	printCompiled(stdout, cc, *capacity)
	return 0
}

func readSource(args []string, stdin io.Reader) (string, error) {
	if len(args) == 0 {
		data, err := io.ReadAll(stdin)
		return string(data), err
	}
	data, err := os.ReadFile(args[0])
	return string(data), err
}

func printCompiled(w io.Writer, cc *policy.Compiled, capacity int) {
	p := cc.Config.Params
	fmt.Fprintf(w, "policy %q compiled onto n=%d f=%d k=%d chain=%d pipeline\n",
		cc.Policy.Name, p.Inputs, p.Fanout, p.Stages, p.ChainLen)
	for si, sc := range cc.Config.Stages {
		fmt.Fprintf(w, "stage %d: sources %v\n", si+1, sc.Sources)
		for ci, cell := range sc.Cells {
			fmt.Fprintf(w, "  cell %d: U1=%s U2=%s B1=%s B2=%s\n",
				ci+1, kufpuStr(cell.U1), kufpuStr(cell.U2),
				bfpuStr(cell.B1), bfpuStr(cell.B2))
		}
	}
	for i, o := range cc.Policy.Outputs {
		fb := ""
		if cc.Policy.FallbackOf != nil && cc.Policy.FallbackOf[i] != -1 {
			fb = fmt.Sprintf(" (fallback -> %s)", cc.Policy.Outputs[cc.Policy.FallbackOf[i]].Name)
		}
		fmt.Fprintf(w, "output %q on final-stage line %d%s\n", o.Name, cc.OutputLines[i]+1, fb)
	}
	latency := uint64(p.Stages) * (uint64(pipeline.CrossbarCycles) + uint64(p.ChainLen)*3 + 1)
	clock := asic.PipelineClockGHz(capacity)
	fmt.Fprintf(w, "latency: %d cycles (%.1f ns at %.2f GHz)\n", latency, float64(latency)/clock, clock)
	fmt.Fprintf(w, "modeled area at N=%d: %.4f mm² pipeline + %.4f mm² SMBM\n",
		capacity,
		asic.PipelineArea(capacity, p.Inputs, p.Stages, p.ChainLen, p.Fanout),
		asic.SMBMArea(capacity, len(cc.Schema.Attrs)))
}

func kufpuStr(op pipeline.KUFPUOp) string {
	switch op.Op {
	case filter.UNoOp:
		return "no-op"
	case filter.UPredicate:
		return fmt.Sprintf("pred(attr%d %s %d)", op.Attr, op.Rel, op.Val)
	case filter.URandom:
		return fmt.Sprintf("%d-random", op.K)
	default:
		return fmt.Sprintf("%d-%s(attr%d)", op.K, op.Op, op.Attr)
	}
}

func bfpuStr(cfg filter.BFPUConfig) string {
	if cfg.Op == filter.BNoOp {
		return fmt.Sprintf("mux%d", cfg.Choice)
	}
	return cfg.Op.String()
}
