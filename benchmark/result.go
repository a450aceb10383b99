package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// metricValue is one reported number. Samples is the count the number rests
// on (steps for a percentile, ops for a rate).
type metricValue struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// envInfo travels in every result file so numbers from different boxes are
// never diffed blind.
type envInfo struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Transport  string  `json:"transport"`
	ALUSpinMs  float64 `json:"alu_spin_ms"`
}

// transportNote is printed with every run.
const transportNote = "one process, Unix-domain socket: traffic crosses the host's UDS loopback, not a real link"

// aluSpin is a fixed xorshift loop: its time says how fast this box's ALU
// ran when the result was taken.
func aluSpin() float64 {
	x := uint64(88172645463325252)
	start := time.Now()
	for i := 0; i < 1<<25; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	ms := float64(time.Since(start)) / 1e6
	sink += int(x & 1)
	return ms
}

func readEnv() envInfo {
	e := envInfo{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     "unknown",
		Transport:  transportNote,
		ALUSpinMs:  aluSpin(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	return e
}

// simInfo is the simulator's identity check: simulated quantities that must
// repeat exactly for a seed, so a simulator speed-up can be shown to leave
// every simulated statistic unchanged.
type simInfo struct {
	Events    int64   `json:"sim_events"`
	Digest    string  `json:"sim_digest"`
	FCTMeanUs float64 `json:"sim_fct_mean_us_simulated_time"`
	FCTP99Us  float64 `json:"sim_fct_p99_us_simulated_time"`
}

// runResult is one run of one workload.
type runResult struct {
	Workload    string                 `json:"workload"`
	Seed        int64                  `json:"seed"`
	Seconds     float64                `json:"seconds"`
	Traced      bool                   `json:"traced"`
	Valid       bool                   `json:"valid"`
	Invalid     []string               `json:"invalid,omitempty"`
	Attempted   int64                  `json:"attempted"`
	Failed      int64                  `json:"failed"`
	InputDigest string                 `json:"input_digest"`
	Metrics     map[string]metricValue `json:"metrics"`
	Sim         *simInfo               `json:"sim,omitempty"`
	Env         envInfo                `json:"env"`
}

func (r *runResult) set(name string, v float64, samples int) {
	spec := findMetric(endToEnd, name)
	if spec == nil {
		spec = findMetric(perLayer, name)
	}
	if spec == nil {
		panic("benchmark: metric " + name + " is not in the spec")
	}
	r.Metrics[name] = metricValue{Value: v, Unit: spec.Unit, Samples: samples}
}

func (r *runResult) invalid(format string, args ...any) {
	r.Invalid = append(r.Invalid, fmt.Sprintf(format, args...))
}

// setPctl reports one percentile as the median over the slices of the
// window, refusing when a slice has too few samples beyond it.
func (r *runResult) setPctl(name string, slices [][]float64, q float64) {
	v, beyond, total := slicePctl(slices, q)
	if beyond < minTailSamples && q > 0.5 {
		r.invalid("%s: %d samples beyond the percentile, need %d", name, beyond, minTailSamples)
	}
	if total == 0 {
		r.invalid("%s: no samples", name)
	}
	r.set(name, v, total)
}

// resultFile is what -out accumulates: one entry per run, appended across
// invocations, so a set of runs lives in one file for -compare.
type resultFile struct {
	Schema int         `json:"schema"`
	Runs   []runResult `json:"runs"`
}

func appendResult(path string, r *runResult) error {
	var f resultFile
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &f); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	f.Schema = 1
	f.Runs = append(f.Runs, *r)
	b, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readResults(path string) (*resultFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// print writes the human-readable report: every metric by name, with its
// unit and the sample count beside it.
func (r *runResult) print(w io.Writer) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s  seed %d  %.1f s  %s ==\n", r.Workload, r.Seed, r.Seconds, mode)
	fmt.Fprintf(w, "   %s\n", transportNote)
	fmt.Fprintf(w, "   nproc %d  GOMAXPROCS %d  %s  commit %s  alu-spin %.1f ms  inputs %s\n",
		r.Env.NProc, r.Env.GOMAXPROCS, r.Env.GoVersion, r.Env.Commit, r.Env.ALUSpinMs, r.InputDigest)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		ei, ej := findMetric(endToEnd, names[i]) != nil, findMetric(endToEnd, names[j]) != nil
		if ei != ej {
			return ei
		}
		return names[i] < names[j]
	})
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "   %-34s %16.4f %-6s n=%d\n", n, m.Value, m.Unit, m.Samples)
	}
	if r.Sim != nil {
		fmt.Fprintf(w, "   sim_events %d  sim_digest %s\n", r.Sim.Events, r.Sim.Digest)
		fmt.Fprintf(w, "   simulated time: mean FCT %.1f us, p99 FCT %.1f us\n", r.Sim.FCTMeanUs, r.Sim.FCTP99Us)
	}
	fmt.Fprintf(w, "   attempted %d  failed %d\n", r.Attempted, r.Failed)
	for _, why := range r.Invalid {
		fmt.Fprintf(w, "   INVALID: %s\n", why)
	}
}

// driverLine is the one JSON object the driver reads from the last line of
// standard output: every end-to-end metric of BENCHMARK.json on an untraced
// run, every per-layer metric on a traced run. A per-layer metric that does
// not apply to the workload reads 0.
func (r *runResult) driverLine() ([]byte, error) {
	metrics := map[string]metricValue{}
	if r.Traced {
		for _, m := range perLayer {
			v := r.Metrics[m.Name]
			metrics[m.Name] = metricValue{Value: v.Value, Unit: m.Unit}
		}
	} else {
		for _, m := range endToEnd {
			if !m.Gate {
				continue
			}
			v, ok := r.Metrics[m.Name]
			if !ok {
				return nil, fmt.Errorf("gated metric %s missing on %s", m.Name, r.Workload)
			}
			metrics[m.Name] = metricValue{Value: v.Value, Unit: m.Unit}
		}
	}
	return json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int64                  `json:"attempted"`
		Failed    int64                  `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{r.Failed == 0 && r.Valid, r.Attempted, r.Failed, metrics})
}
