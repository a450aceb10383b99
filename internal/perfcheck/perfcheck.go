// Package perfcheck is the repository's performance-trajectory harness: a
// fixed set of benchmarks with pinned iteration counts, a JSON checkpoint
// format (the committed BENCH_<n>.json files), and a comparator that gates
// CI on regressions against the newest checkpoint.
//
// Unlike `go test -bench`, which calibrates iteration counts per run, every
// benchmark here executes a fixed number of iterations so two checkpoints
// measure exactly the same work. Each benchmark is repeated Reps times and
// the minimum ns/op across repetitions is recorded: the minimum is the run
// least disturbed by scheduler and cache noise, which is what a regression
// gate should compare. The full repetition list is kept in the checkpoint so
// a human can judge the spread.
package perfcheck

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"time"
)

// Schema is the checkpoint file format version.
const Schema = 1

// DefaultReps is the number of timed repetitions per benchmark; the minimum
// is recorded as the benchmark's ns/op.
const DefaultReps = 5

// DefaultThreshold is the relative slowdown vs the baseline checkpoint that
// fails the gate: 0.10 means "more than 10% slower fails".
const DefaultThreshold = 0.10

// CalibrationName is the fixed pure-ALU spin benchmark. When both
// checkpoints contain it, Compare divides every ratio by the calibration
// ratio, cancelling machine-speed differences (frequency scaling, co-tenant
// load, a different CI runner) out of the gate.
const CalibrationName = "Calibration"

// MemCalibrationName is the fixed memory-streaming calibration benchmark.
// The ALU spin is blind to LLC/DRAM contention from co-tenants — it stays
// at 1.00x while every memory-touching benchmark inflates — so Compare
// normalizes by the worse of the two calibration ratios when both
// checkpoints carry both. Checkpoints recorded before this benchmark
// existed simply fall back to ALU-only normalization.
const MemCalibrationName = "CalibrationMem"

// Benchmark is one entry of the fixed set. Setup runs untimed and returns
// the body; the body is invoked Iters times per repetition with the
// iteration index (so workloads can vary deterministically per iteration
// without calling a clock or RNG inside the timed region).
//
// Threshold is the per-benchmark regression gate (0 selects
// DefaultThreshold). Hot-path kernels keep the tight default; long
// wall-clock simulations get a wider band because their run-to-run minimum
// drifts with background load on shared machines — they are tracked for
// trajectory, not tightly gated.
type Benchmark struct {
	Name      string
	Iters     int
	Reps      int     // 0 selects DefaultReps
	Threshold float64 // 0 selects DefaultThreshold
	Setup     func() (body func(i int), err error)
}

// Thresholds extracts the per-benchmark gate thresholds from a set, for
// passing to Compare. Benchmarks absent from the returned map (e.g. ones
// removed from the set) fall back to DefaultThreshold.
func Thresholds(set []Benchmark) map[string]float64 {
	m := make(map[string]float64, len(set))
	for _, b := range set {
		t := b.Threshold
		if t == 0 {
			t = DefaultThreshold
		}
		m[b.Name] = t
	}
	return m
}

// Result is one benchmark's measurement inside a checkpoint.
type Result struct {
	Iters   int       `json:"iters"`
	NsPerOp float64   `json:"ns_per_op"`      // minimum across repetitions
	RepsNs  []float64 `json:"reps_ns_per_op"` // every repetition, in run order
}

// Checkpoint is the on-disk BENCH_<n>.json format.
type Checkpoint struct {
	Schema     int               `json:"schema"`
	GoVersion  string            `json:"go_version"`
	GOOS       string            `json:"goos"`
	GOARCH     string            `json:"goarch"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Benchmarks map[string]Result `json:"benchmarks"`
}

// Run executes every benchmark in the set with pinned iteration counts and
// returns the resulting checkpoint. Progress is logged to w (pass io.Discard
// to silence).
//
// Repetitions are interleaved: the set runs as rounds, one timed repetition
// of every benchmark per round. Back-to-back repetitions of one benchmark
// all land inside the same burst of co-tenant load; spreading them across
// rounds puts seconds between a benchmark's samples, so the recorded
// minimum gets a chance at a quiet window.
func Run(set []Benchmark, w io.Writer) (*Checkpoint, error) {
	cp := &Checkpoint{
		Schema:     Schema,
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Benchmarks: make(map[string]Result, len(set)),
	}
	bodies := make([]func(int), len(set))
	results := make([]Result, len(set))
	maxReps := 0
	for i, b := range set {
		if b.Iters <= 0 {
			return nil, fmt.Errorf("perfcheck: %s has non-positive iteration count", b.Name)
		}
		body, err := b.Setup()
		if err != nil {
			return nil, fmt.Errorf("perfcheck: %s: %w", b.Name, err)
		}
		bodies[i] = body
		reps := b.Reps
		if reps <= 0 {
			reps = DefaultReps
		}
		if reps > maxReps {
			maxReps = reps
		}
		results[i] = Result{Iters: b.Iters, RepsNs: make([]float64, 0, reps)}
		// One untimed warmup repetition fills caches, lazily-built scratch
		// and branch predictors, so round 0 is not systematically slower.
		for it := 0; it < b.Iters; it++ {
			body(it)
		}
	}
	for r := 0; r < maxReps; r++ {
		for i, b := range set {
			if len(results[i].RepsNs) == cap(results[i].RepsNs) {
				continue
			}
			start := time.Now()
			for it := 0; it < b.Iters; it++ {
				bodies[i](it)
			}
			ns := float64(time.Since(start).Nanoseconds()) / float64(b.Iters)
			res := &results[i]
			res.RepsNs = append(res.RepsNs, ns)
			if r == 0 || ns < res.NsPerOp {
				res.NsPerOp = ns
			}
		}
	}
	for i, b := range set {
		cp.Benchmarks[b.Name] = results[i]
		fmt.Fprintf(w, "perfcheck: %-28s %12.1f ns/op  (%d iters x %d reps)\n",
			b.Name, results[i].NsPerOp, results[i].Iters, len(results[i].RepsNs))
	}
	return cp, nil
}

// Subset filters a set to the named benchmarks, preserving set order. Names
// absent from the set are ignored.
func Subset(set []Benchmark, names map[string]bool) []Benchmark {
	var out []Benchmark
	for _, b := range set {
		if names[b.Name] {
			out = append(out, b)
		}
	}
	return out
}

// Merge folds a re-measurement into cp: for every benchmark present in both
// checkpoints, the re-run's repetitions are appended and the recorded
// minimum updated. Because iteration counts are pinned, a re-run is the
// exact same work, so taking the minimum across runs is sound — it is the
// same estimator as another repetition round, just placed in a different
// (hopefully quieter) window. Benchmarks only in other are ignored.
func (cp *Checkpoint) Merge(other *Checkpoint) {
	for name, nb := range other.Benchmarks {
		ob, ok := cp.Benchmarks[name]
		if !ok {
			continue
		}
		ob.RepsNs = append(ob.RepsNs, nb.RepsNs...)
		if nb.NsPerOp < ob.NsPerOp {
			ob.NsPerOp = nb.NsPerOp
		}
		cp.Benchmarks[name] = ob
	}
}

// WriteFile writes the checkpoint as indented JSON ("-" writes to stdout).
func (cp *Checkpoint) WriteFile(path string) error {
	data, err := json.MarshalIndent(cp, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path == "-" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// Load reads a checkpoint file.
func Load(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var cp Checkpoint
	if err := json.Unmarshal(data, &cp); err != nil {
		return nil, fmt.Errorf("perfcheck: %s: %w", path, err)
	}
	if cp.Schema != Schema {
		return nil, fmt.Errorf("perfcheck: %s has schema %d, want %d", path, cp.Schema, Schema)
	}
	return &cp, nil
}

// Delta is one benchmark's old-vs-new comparison. Ratio is raw new/old
// ns/op; Norm is Ratio divided by the calibration ratio, and is what the
// gate judges (> 1 is a slowdown, < 1 a speedup). Threshold is the gate
// this pair was judged against.
type Delta struct {
	Name       string
	OldNs      float64
	NewNs      float64
	Ratio      float64
	Norm       float64
	Threshold  float64
	Regression bool
}

// Comparison is the outcome of comparing a fresh checkpoint against a
// baseline. CalRatio is the effective normalizer every Delta was divided
// by: the worse of the ALU-spin and memory-stream calibration ratios (1
// when either side lacks both) — how much of any apparent slowdown is just
// the machine running slower or its memory system more contended. ALURatio
// and MemRatio are the individual calibration ratios (0 when untracked).
type Comparison struct {
	Deltas   []Delta  // benchmarks present in both, sorted by name
	Added    []string // only in the new checkpoint (newly tracked kernels)
	Removed  []string // only in the baseline
	CalRatio float64
	ALURatio float64
	MemRatio float64
}

// Failed reports whether any tracked benchmark regressed past the threshold.
func (c *Comparison) Failed() bool {
	for _, d := range c.Deltas {
		if d.Regression {
			return true
		}
	}
	return false
}

// Compare evaluates a fresh checkpoint against a baseline: every benchmark
// present in both is a tracked pair, and a pair whose new ns/op exceeds
// old*(1+threshold) is a regression. The per-benchmark threshold comes
// from the thresholds map (see Thresholds); names missing from the map use
// DefaultThreshold, and a nil map applies DefaultThreshold everywhere.
// Benchmarks only on one side are listed but never fail the gate — that is
// how new kernels enter the tracked set.
func Compare(baseline, fresh *Checkpoint, thresholds map[string]float64) *Comparison {
	c := &Comparison{CalRatio: 1}
	calPair := func(name string) float64 {
		if ob, ok := baseline.Benchmarks[name]; ok && ob.NsPerOp > 0 {
			if nb, ok := fresh.Benchmarks[name]; ok && nb.NsPerOp > 0 {
				return nb.NsPerOp / ob.NsPerOp
			}
		}
		return 0
	}
	c.ALURatio = calPair(CalibrationName)
	c.MemRatio = calPair(MemCalibrationName)
	// A real regression shows up against either yardstick once the machine is
	// quiet; taking the worse ratio only suppresses the gate while the
	// contention that caused the inflation is actually present.
	if c.ALURatio > c.CalRatio {
		c.CalRatio = c.ALURatio
	}
	if c.MemRatio > c.CalRatio {
		c.CalRatio = c.MemRatio
	}
	for name, nb := range fresh.Benchmarks {
		ob, ok := baseline.Benchmarks[name]
		if !ok {
			c.Added = append(c.Added, name)
			continue
		}
		t, ok := thresholds[name]
		if !ok {
			t = DefaultThreshold
		}
		d := Delta{Name: name, OldNs: ob.NsPerOp, NewNs: nb.NsPerOp, Threshold: t}
		if ob.NsPerOp > 0 {
			d.Ratio = nb.NsPerOp / ob.NsPerOp
			d.Norm = d.Ratio / c.CalRatio
			d.Regression = d.Norm > 1+t
		}
		c.Deltas = append(c.Deltas, d)
	}
	for name := range baseline.Benchmarks {
		if _, ok := fresh.Benchmarks[name]; !ok {
			c.Removed = append(c.Removed, name)
		}
	}
	sort.Slice(c.Deltas, func(i, j int) bool { return c.Deltas[i].Name < c.Deltas[j].Name })
	sort.Strings(c.Added)
	sort.Strings(c.Removed)
	return c
}

// Report renders the comparison for humans, one line per tracked benchmark.
func (c *Comparison) Report(w io.Writer) {
	if c.CalRatio != 1 {
		detail := fmt.Sprintf("alu %.2fx", c.ALURatio)
		if c.MemRatio > 0 {
			detail += fmt.Sprintf(", mem %.2fx", c.MemRatio)
		}
		fmt.Fprintf(w, "perfcheck: machine speed ratio %.2fx (%s; ratios below are calibration-normalized)\n",
			c.CalRatio, detail)
	}
	for _, d := range c.Deltas {
		verdict := fmt.Sprintf("ok (gate %.0f%%)", d.Threshold*100)
		switch {
		case d.Regression:
			verdict = fmt.Sprintf("REGRESSION (>%.0f%%)", d.Threshold*100)
		case d.Norm < 1-d.Threshold:
			verdict = "improved"
		}
		fmt.Fprintf(w, "perfcheck: %-28s %12.1f -> %12.1f ns/op  (%5.2fx)  %s\n",
			d.Name, d.OldNs, d.NewNs, d.Norm, verdict)
	}
	for _, name := range c.Added {
		fmt.Fprintf(w, "perfcheck: %-28s newly tracked\n", name)
	}
	for _, name := range c.Removed {
		fmt.Fprintf(w, "perfcheck: %-28s no longer tracked\n", name)
	}
}
