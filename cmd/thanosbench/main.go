// Command thanosbench regenerates the paper's evaluation: Tables 1–5 and
// Figures 16–19, plus the DRILL parameter sweep and design ablations. Each
// experiment prints the reproduced numbers next to the paper's published
// ones where applicable.
//
// Independent experiment points (the (policy, load) grids of the figures)
// are fanned across CPUs by default; every point owns its own simulator and
// seed, so -parallel changes wall-clock time only, never results.
//
// Usage:
//
//	thanosbench -exp all             # everything (several minutes)
//	thanosbench -exp table1          # one experiment
//	thanosbench -exp fig17 -quick    # reduced-size network runs
//	thanosbench -exp fig16 -seed 7   # change the workload seed
//	thanosbench -parallel=false      # force serial sweeps
//	thanosbench -benchjson out.json  # machine-readable results ("-" = stdout)
//	thanosbench -engine -shards 8    # sharded decision-engine throughput sweep
//	                                 # (1..8 shards; also reachable as -exp engine)
//
// Performance-trajectory mode (the committed BENCH_<n>.json checkpoints and
// the `make check-perf` CI gate):
//
//	thanosbench -checkpoint BENCH_1.json            # run the fixed benchmark
//	                                                # set, write a checkpoint
//	thanosbench -checkpoint new.json -against BENCH_0.json
//	                                                # ...and fail (exit 1) if any
//	                                                # tracked benchmark regressed
//	                                                # more than -regress vs the
//	                                                # baseline
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/asic"
	"repro/internal/benes"
	"repro/internal/experiments"
	"repro/internal/experiments/runner"
	"repro/internal/lb"
	"repro/internal/perfcheck"
	"repro/internal/telemetry"
)

// benchRecord is one experiment's entry in the -benchjson output.
type benchRecord struct {
	Experiment string  `json:"experiment"`
	Seed       int64   `json:"seed"`
	Quick      bool    `json:"quick"`
	Workers    int     `json:"workers"`
	ElapsedMs  float64 `json:"elapsed_ms"`
	Result     any     `json:"result"`
}

// drillResult wraps the sweep points so the text report and the JSON record
// share one value.
type drillResult []experiments.DrillSweepPoint

func (r drillResult) String() string {
	var b strings.Builder
	b.WriteString("== DRILL (d, m) sweep at 80% load (ablation behind §7.2.4's d/m observation) ==\n")
	for _, p := range r {
		fmt.Fprintf(&b, "d=%d m=%d mean FCT %.0f µs\n", p.D, p.M, p.MeanFCTUs)
	}
	return b.String()
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes one thanosbench invocation and returns its exit code: 2 for a
// bad flag or experiment name, 1 for a failed experiment or export.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("thanosbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment: table1|table2|table3|table4|table5|fig16|fig17|fig18|fig19|drillsweep|ablation|all")
	seed := fs.Int64("seed", 1, "workload seed")
	quick := fs.Bool("quick", false, "smaller network runs (for smoke testing)")
	parallel := fs.Bool("parallel", true, "fan independent experiment points across CPUs")
	benchjson := fs.String("benchjson", "", "write machine-readable results as JSON to this file (\"-\" for stdout)")
	engineFlag := fs.Bool("engine", false, "run the sharded decision-engine throughput sweep (shorthand for -exp engine)")
	shards := fs.Int("shards", 8, "maximum shard count for the engine sweep (sweeps powers of two up to this)")
	metricsOut := fs.String("metrics", "", "run an instrumented engine point and write its Prometheus text snapshot to this file")
	checkpointOut := fs.String("checkpoint", "", "run the fixed perf-checkpoint benchmark set and write it as JSON to this file (\"-\" for stdout)")
	against := fs.String("against", "", "baseline checkpoint to compare the run against; any tracked benchmark regressing more than -regress fails with exit 1")
	regress := fs.Float64("regress", perfcheck.DefaultThreshold, "regression gate for hot-path benchmarks (0.10 = 10%); noisy wall-clock benchmarks keep their own wider bands from the set definition")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2 // the flag set has printed the error and usage
	}

	// Checkpoint mode is exclusive: it runs the pinned benchmark set instead
	// of the paper experiments.
	if *checkpointOut != "" || *against != "" {
		return runCheckpoint(*checkpointOut, *against, *regress, stdout, stderr)
	}

	pool := runner.Serial()
	if *parallel {
		pool = runner.NewPool()
	}

	runners := map[string]func() (any, error){
		"table1": func() (any, error) { return experiments.Table1(), nil },
		"table2": func() (any, error) { return experiments.Table2(), nil },
		"table3": func() (any, error) { return experiments.Table3(), nil },
		"table4": func() (any, error) { return experiments.Table4(), nil },
		"table5": func() (any, error) { return experiments.Table5() },
		"fig16": func() (any, error) {
			n := 4000
			if *quick {
				n = 800
			}
			return experiments.Fig16With(lb.DefaultClusterConfig(*seed), n, pool)
		},
		"fig17": func() (any, error) {
			return experiments.Fig17With(netCfg(*seed, *quick), loads(*quick), pool)
		},
		"fig18": func() (any, error) {
			return experiments.Fig18With(netCfg(*seed, *quick), loads(*quick), pool)
		},
		"fig19": func() (any, error) {
			cfg := experiments.DefaultFig19Config(*seed)
			if *quick {
				cfg.Queries = 800
			}
			return experiments.Fig19With(cfg, pool)
		},
		"drillsweep": func() (any, error) {
			pts, err := experiments.DrillSweepWith(netCfg(*seed, *quick), 0.8,
				[]int{1, 2, 3}, []int{1, 2, 3}, pool)
			return drillResult(pts), err
		},
		"ablation": func() (any, error) { return ablationReport(), nil },
		"engine": func() (any, error) {
			batch, batches := 4096, 200
			if *quick {
				batches = 20
			}
			return experiments.EngineSweep(experiments.EngineShardCounts(*shards), batch, 64, batches, *seed)
		},
	}

	// "engine" is a host-machine microbenchmark, not a paper reproduction,
	// so "all" does not include it; select it with -engine or -exp engine.
	names := []string{"table1", "table2", "table3", "table4", "table5",
		"fig16", "fig17", "fig18", "fig19", "drillsweep", "ablation"}
	var selected []string
	switch {
	case *engineFlag:
		selected = []string{"engine"}
	case *exp == "all":
		selected = names
	default:
		for _, name := range strings.Split(*exp, ",") {
			if _, ok := runners[name]; !ok {
				fmt.Fprintf(stderr, "unknown experiment %q (have %s)\n", name, strings.Join(names, ", "))
				return 2
			}
			selected = append(selected, name)
		}
	}
	var records []benchRecord
	for _, name := range selected {
		start := time.Now()
		res, err := runners[name]()
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", name, err)
			return 1
		}
		fmt.Fprintln(stdout, res)
		records = append(records, benchRecord{
			Experiment: name,
			Seed:       *seed,
			Quick:      *quick,
			Workers:    pool.Workers,
			ElapsedMs:  float64(time.Since(start).Microseconds()) / 1000,
			Result:     res,
		})
	}
	// An instrumented engine point rides along whenever the engine sweep was
	// selected or a metrics export was requested: its metric snapshot goes
	// into the benchjson record, and -metrics exports the Prometheus text
	// alongside.
	if *engineFlag || *metricsOut != "" {
		batch, batches := 4096, 200
		if *quick {
			batches = 20
		}
		start := time.Now()
		tel, err := experiments.EngineTelemetryPoint(*shards, batch, 64, batches, *seed)
		if err != nil {
			fmt.Fprintf(stderr, "engine-telemetry: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, tel)
		records = append(records, benchRecord{
			Experiment: "engine-telemetry",
			Seed:       *seed,
			Quick:      *quick,
			Workers:    pool.Workers,
			ElapsedMs:  float64(time.Since(start).Microseconds()) / 1000,
			Result:     tel,
		})
		if *metricsOut != "" {
			if err := writeMetrics(*metricsOut, tel.Registry); err != nil {
				fmt.Fprintf(stderr, "metrics: %v\n", err)
				return 1
			}
		}
	}
	if *benchjson != "" {
		if err := writeJSON(*benchjson, records, stdout); err != nil {
			fmt.Fprintf(stderr, "benchjson: %v\n", err)
			return 1
		}
	}
	return 0
}

// runCheckpoint runs the fixed perf benchmark set, optionally writes the
// fresh checkpoint, and optionally gates it against a baseline checkpoint.
// It returns the process exit code: 1 on a regression or harness error.
func runCheckpoint(out, against string, threshold float64, stdout, stderr io.Writer) int {
	set := perfcheck.FullSet()
	fresh, err := perfcheck.Run(set, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "checkpoint: %v\n", err)
		return 1
	}
	var cmp *perfcheck.Comparison
	if against != "" {
		base, err := perfcheck.Load(against)
		if err != nil {
			fmt.Fprintf(stderr, "checkpoint: %v\n", err)
			return 1
		}
		// -regress overrides the tight default band; benchmarks with an
		// explicit wider band in the set definition keep it.
		thresholds := perfcheck.Thresholds(set)
		for _, b := range set {
			if b.Threshold == 0 {
				thresholds[b.Name] = threshold
			}
		}
		cmp = perfcheck.Compare(base, fresh, thresholds)
		// On a shared box a flagged benchmark is as often a co-tenant load
		// burst as a real slowdown. Pinned iterations make a re-run the exact
		// same work, so before failing, re-measure just the flagged subset
		// (plus both calibration workloads, so normalization tracks the retry
		// window's machine speed), fold the new minima in, and re-judge.
		// Genuine regressions survive every retry; bursts do not.
		for retry := 1; cmp.Failed() && retry <= 3; retry++ {
			names := map[string]bool{
				perfcheck.CalibrationName:    true,
				perfcheck.MemCalibrationName: true,
			}
			for _, d := range cmp.Deltas {
				if d.Regression {
					names[d.Name] = true
				}
			}
			fmt.Fprintf(stderr, "checkpoint: re-measuring %d flagged benchmarks (retry %d of 3)\n",
				len(names)-1, retry)
			re, err := perfcheck.Run(perfcheck.Subset(set, names), stderr)
			if err != nil {
				fmt.Fprintf(stderr, "checkpoint: %v\n", err)
				return 1
			}
			fresh.Merge(re)
			cmp = perfcheck.Compare(base, fresh, thresholds)
		}
	}
	if out != "" {
		if err := fresh.WriteFile(out); err != nil {
			fmt.Fprintf(stderr, "checkpoint: %v\n", err)
			return 1
		}
	}
	if against == "" {
		return 0
	}
	cmp.Report(stdout)
	if cmp.Failed() {
		fmt.Fprintf(stderr, "checkpoint: regression vs %s\n", against)
		return 1
	}
	fmt.Fprintf(stdout, "checkpoint: no regression vs %s\n", against)
	return 0
}

func writeMetrics(path string, reg *telemetry.Registry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := reg.WritePrometheus(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeJSON(path string, records []benchRecord, stdout io.Writer) error {
	data, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func netCfg(seed int64, quick bool) experiments.NetConfig {
	cfg := experiments.DefaultNetConfig(seed)
	cfg.Repeats = 3
	if quick {
		cfg.Flows = 150
		cfg.SizeScale = 0.1
		cfg.Repeats = 1
	}
	return cfg
}

func loads(quick bool) []float64 {
	if quick {
		return []float64{0.8}
	}
	return []float64{0.4, 0.5, 0.6, 0.7, 0.8, 0.9}
}

// ablationReport reports the design-choice ablations DESIGN.md calls out,
// all from the analytic hardware model.
func ablationReport() string {
	var b strings.Builder
	fmt.Fprintln(&b, "== Design ablations (analytic hardware model, N=128) ==")

	fmt.Fprintln(&b, "-- Cell-based pipeline vs naive directly-connected design (§5.3.2) --")
	for _, nk := range [][2]int{{4, 4}, {8, 8}} {
		n, k := nk[0], nk[1]
		cell := asic.PipelineArea(128, n, k, 4, 2)
		naive := asic.NaivePipelineArea(128, n, k, 4, 2)
		fmt.Fprintf(&b, "n=%d k=%d: cell design %.3f mm², naive %.3f mm² (%.2fx)\n",
			n, k, cell, naive, naive/cell)
	}

	fmt.Fprintln(&b, "-- Benes network vs monolithic crossbar (crosspoint counts, nf x n) --")
	for _, n := range []int{4, 8, 16} {
		mono := benes.CrosspointsMonolithic(2*n, n)
		fmt.Fprintf(&b, "n=%d f=2: monolithic %d crosspoints vs Benes-based stage area %.4f mm²\n",
			n, mono, asic.StageCrossbarArea(128, n, 2))
	}

	fmt.Fprintln(&b, "-- SMBM scalability limit (§6: flip-flops vs SRAM trade-off) --")
	for _, target := range []float64{1.0, 2.0, 3.0} {
		fmt.Fprintf(&b, "max resources at %.1f GHz: %d\n", target, asic.SMBMMaxResourcesAtGHz(target))
	}

	fmt.Fprintln(&b, "-- Chip overhead of an 8x8 pipeline on a 300-700 mm² switch chip --")
	area := asic.PipelineArea(128, 8, 8, 4, 2)
	fmt.Fprintf(&b, "area %.3f mm² -> %.2f%% (700 mm²) to %.2f%% (300 mm²); paper: 0.15-0.3%%\n",
		area, asic.ChipOverheadPercent(area, 700), asic.ChipOverheadPercent(area, 300))
	return b.String()
}
