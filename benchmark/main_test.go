package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"testing"

	"repro/internal/server"
	"repro/internal/server/client"
)

// smokeSeconds is the measured window of the smoke runs. Validity guards
// (tail samples, lag limits) are expected to trip at this length; the smoke
// checks names and plumbing, not numbers.
const smokeSeconds = 0.3

func TestMain(m *testing.M) {
	passScale = 0.02
	setupRepeats = 3
	os.Exit(m.Run())
}

func useTempScratch(t *testing.T) {
	t.Helper()
	old := scratchDir
	scratchDir = t.TempDir()
	t.Cleanup(func() { scratchDir = old })
}

// benchmarkJSON is the driver's contract file at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return bj
}

func TestInputsFollowTheSeed(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		warm, window := windowLens(smokeSeconds)
		a := genInputs(w, 7, warm, window).digest()
		b := genInputs(w, 7, warm, window).digest()
		c := genInputs(w, 8, warm, window).digest()
		if a != b {
			t.Errorf("%s: same seed, different inputs: %s vs %s", w.Name, a, b)
		}
		if a == c {
			t.Errorf("%s: different seeds, same inputs: %s", w.Name, a)
		}
	}
}

func TestSimRepeatsExactly(t *testing.T) {
	w := findWorkload("netsim_routing")
	run := func() *simOut {
		in := simFlows(w, 3, smokeSeconds)
		net, err := buildSim(w, 3, in.flows)
		if err != nil {
			t.Fatal(err)
		}
		return runSim(w, net, len(in.flows), false)
	}
	a, b := run(), run()
	if a.events == 0 || a.flowsDone != a.flowsOffered {
		t.Fatalf("tiny run did nothing useful: %d events, %d/%d flows", a.events, a.flowsDone, a.flowsOffered)
	}
	if a.events != b.events || a.digest != b.digest {
		t.Fatalf("same seed diverged: %d/%s vs %d/%s", a.events, a.digest, b.events, b.digest)
	}
}

// TestSmokeEmitsTheContract runs every workload briefly, untraced and
// traced, and checks that the driver's line carries exactly the metric names
// of BENCHMARK.json: none missing, no extras, every name and unit well
// formed, and that the workload lists agree.
func TestSmokeEmitsTheContract(t *testing.T) {
	useTempScratch(t)
	bj := readBenchmarkJSON(t)
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", bj.RunSeconds, defaultSeconds)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	var wantE2E, wantLayer, wantWorkloads []string
	units := map[string]string{}
	for _, m := range bj.EndToEnd {
		wantE2E = append(wantE2E, m.Name)
		units[m.Name] = m.Unit
		if spec := findMetric(endToEnd, m.Name); spec == nil || !spec.Gate || spec.Bound != m.Bound || spec.Better != m.Better {
			t.Errorf("end_to_end %s disagrees with the program's spec", m.Name)
		}
	}
	for _, m := range bj.PerLayer {
		wantLayer = append(wantLayer, m.Name)
		units[m.Name] = m.Unit
	}
	// spec.go is where the definitions BENCHMARK.json may not carry live.
	for _, m := range endToEnd {
		if m.Def == "" || len(m.Workloads) == 0 || (m.Bound == 0) == (m.AbsBound == 0) {
			t.Errorf("end-to-end metric %s lacks a definition, its workloads or one bound", m.Name)
		}
	}
	for _, m := range perLayer {
		if m.Layer == "" || m.Moves == "" || len(m.Workloads) == 0 {
			t.Errorf("per-layer metric %s lacks its layer, what it should move or its workloads", m.Name)
		}
	}
	for name, unit := range units {
		if !nameRE.MatchString(name) || !unitRE.MatchString(unit) {
			t.Errorf("metric %q unit %q is not well formed", name, unit)
		}
	}
	for _, w := range bj.Workloads {
		wantWorkloads = append(wantWorkloads, w.Name)
		if !nameRE.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %q is not well formed", w.Name)
		}
	}
	if !equalSets(allWorkloads(), wantWorkloads) {
		t.Fatalf("the program has workloads %v, BENCHMARK.json has %v", allWorkloads(), wantWorkloads)
	}
	for _, w := range workloads {
		for _, bw := range bj.Workloads {
			if bw.Name == w.Name && bw.Why != w.Why {
				t.Errorf("%s: BENCHMARK.json's why differs from the program's", w.Name)
			}
		}
	}

	for i := range workloads {
		w := &workloads[i]
		for _, traced := range []bool{false, true} {
			r, err := runWorkload(w, 1, smokeSeconds, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if r.Attempted < 1 || r.Failed != 0 {
				t.Errorf("%s traced=%v: attempted %d failed %d", w.Name, traced, r.Attempted, r.Failed)
			}
			line, err := r.driverLine()
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			var out struct {
				Metrics map[string]metricValue `json:"metrics"`
			}
			if err := json.Unmarshal(line, &out); err != nil {
				t.Fatal(err)
			}
			var got []string
			for name, m := range out.Metrics {
				got = append(got, name)
				if m.Unit != units[name] {
					t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", w.Name, name, m.Unit, units[name])
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: %s is %v", w.Name, name, m.Value)
				}
			}
			want := wantE2E
			if traced {
				want = wantLayer
			}
			if !equalSets(got, want) {
				t.Errorf("%s traced=%v emits %v, BENCHMARK.json has %v", w.Name, traced, got, want)
			}
			// Every metric the spec says applies must have been measured.
			list := endToEnd
			if traced {
				list = perLayer
			}
			for j := range list {
				if _, ok := r.Metrics[list[j].Name]; appliesTo(&list[j], w.Name) && !ok {
					t.Errorf("%s traced=%v: %s applies but was not measured", w.Name, traced, list[j].Name)
				}
			}
		}
	}
}

func equalSets(a, b []string) bool {
	a, b = append([]string(nil), a...), append([]string(nil), b...)
	sort.Strings(a)
	sort.Strings(b)
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestOracleRejectsACorruptedReply(t *testing.T) {
	wire, filter, churn := findWorkload("serve_wire"), findWorkload("serve_filter"), findWorkload("serve_churn")

	table := genTable(wire.Resources, 5)
	or, err := newOracle(wire, table)
	if err != nil {
		t.Fatal(err)
	}
	right := or.exact
	if or.wrong([]int32{right, right}) != 0 {
		t.Fatal("exact oracle rejects the right id")
	}
	if or.wrong([]int32{right, (right + 1) % int32(len(table)), -1}) != 2 {
		t.Fatal("exact oracle accepts a corrupted reply")
	}

	table = genTable(filter.Resources, 5)
	if or, err = newOracle(filter, table); err != nil {
		t.Fatal(err)
	}
	var in, out int32 = -1, -1
	for id, row := range table {
		if row[0] < 70 && row[1] > 1024 && row[2] > 2000 {
			in = int32(id)
		} else {
			out = int32(id)
		}
	}
	if in < 0 || out < 0 {
		t.Fatal("table has no resource on one side of the predicate")
	}
	if or.wrong([]int32{in}) != 0 || or.wrong([]int32{out}) != 1 || or.wrong([]int32{int32(len(table))}) != 1 {
		t.Fatal("set oracle misjudges membership")
	}

	// All-failing table: the backup set is every installed resource.
	starved := [][]int64{{99, 0, 0}, {99, 0, 0}}
	if or, err = newOracle(filter, starved); err != nil {
		t.Fatal(err)
	}
	if or.wrong([]int32{0, 1}) != 0 || or.wrong([]int32{-1}) != 1 {
		t.Fatal("backup set is not the installed resources")
	}

	if or, err = newOracle(churn, genTable(churn.Resources, 5)); err != nil {
		t.Fatal(err)
	}
	if or.wrong([]int32{0, int32(churn.Resources - 1)}) != 0 || or.wrong([]int32{-1, int32(churn.Resources)}) != 2 {
		t.Fatal("churn oracle misjudges installed ids")
	}
}

func TestLedgerClosesOnASyntheticTrace(t *testing.T) {
	ti := client.TraceInfo{
		ID: 9, EnqueueNs: 1_000, SendNs: 1_400, ReplyNs: 9_000,
		Server: server.DecideTrace{ID: 9, RecvNs: 2_000, AdmitNs: 2_100, StartNs: 2_600, DoneNs: 8_000},
	}
	// The call took 8 500 ns around the 8 000 ns the stamps cover.
	p := ledger(&ti, 8_500)
	want := phases{enqueue: 400, wire: 600, admit: 100, ring: 500, decide: 5_400, reply: 1_000, resid: 500}
	if p != want {
		t.Fatalf("ledger %+v, want %+v", p, want)
	}
	sum := p.enqueue + p.wire + p.admit + p.ring + p.decide + p.reply + p.resid
	if sum != 8_500 {
		t.Fatalf("phases sum to %d, batch latency is %d", sum, 8_500)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(v, n=4) for these inputs.
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{158.2, 158.97, 160.8, 163.2, 235.5}, 158.585, 199.35},
		{[]float64{3, 1}, 0.5, 3.5},
	} {
		q1, q3 := quartiles(c.v)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %v, %v; Python gives %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
}

func TestVerdicts(t *testing.T) {
	lowerIsBetter := &metricSpec{Name: "batch_p50_us", Better: lower, Bound: 0.10}
	higherIsBetter := &metricSpec{Name: "decisions_per_s", Better: higher, Bound: 0.10}
	tight := func(v float64) side { return sideOf([]float64{v * 0.99, v, v * 1.01}) }
	if got := verdict(lowerIsBetter, tight(100), tight(105)); got != "ok" {
		t.Errorf("+5%% latency within a 10%% bound: %s", got)
	}
	if got := verdict(lowerIsBetter, tight(100), tight(115)); got != "worse" {
		t.Errorf("+15%% latency: %s", got)
	}
	if got := verdict(higherIsBetter, tight(100), tight(85)); got != "worse" {
		t.Errorf("-15%% throughput: %s", got)
	}
	if got := verdict(higherIsBetter, tight(100), tight(120)); got != "ok" {
		t.Errorf("+20%% throughput: %s", got)
	}
	if got := verdict(lowerIsBetter, sideOf([]float64{80, 100, 120}), tight(100)); got != "unresolved" {
		t.Errorf("spread wider than the bound: %s", got)
	}
	failed := &metricSpec{Name: "failed_ratio", Better: lower, AbsBound: 0.001}
	if got := verdict(failed, tight(0), sideOf([]float64{0, 0, 0.002})); got != "worse" {
		t.Errorf("failed_ratio: one failing run of three: %s", got)
	}
	if got := verdict(lowerIsBetter, tight(0), tight(5)); got != "unresolved" {
		t.Errorf("no base to take a share of: %s", got)
	}
}

func TestSlicePctlIsTheMedianSlice(t *testing.T) {
	ramp := func(from float64) []float64 {
		v := make([]float64, 101)
		for i := range v {
			v[i] = from + float64(i)
		}
		return v
	}
	// Slice p99s 99, 1099 and 199: one disturbed slice does not set the
	// number, and the least disturbed one does not either.
	v, beyond, total := slicePctl([][]float64{ramp(0), ramp(1000), ramp(100), nil}, 0.99)
	if v != 199 || beyond != 1 || total != 303 {
		t.Fatalf("slicePctl = %v, %d beyond, %d samples; want 199, 1, 303", v, beyond, total)
	}
}

// TestCompareRefusesHalfASet builds result files by hand: -compare must not
// pass a set that has lost a workload, holds an invalid run, or has one
// failing run among good ones.
func TestCompareRefusesHalfASet(t *testing.T) {
	run := func(workload string, failed float64, valid bool) runResult {
		r := runResult{Workload: workload, Seed: 1, Seconds: 1, Valid: valid, Metrics: map[string]metricValue{}}
		for _, m := range endToEnd {
			if appliesTo(&m, workload) {
				r.Metrics[m.Name] = metricValue{Value: 100, Unit: m.Unit}
			}
		}
		r.Metrics["failed_ratio"] = metricValue{Value: failed, Unit: "ratio"}
		if !valid {
			r.Invalid = []string{"made invalid by the test"}
		}
		return r
	}
	write := func(name string, runs ...runResult) string {
		path := filepath.Join(t.TempDir(), name)
		for i := range runs {
			if err := appendResult(path, &runs[i]); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	good := func(workload string) []runResult {
		return []runResult{run(workload, 0, true), run(workload, 0, true), run(workload, 0, true)}
	}
	both := append(good("serve_wire"), good("serve_churn")...)
	a := write("a.json", both...)
	for _, c := range []struct {
		name string
		b    []runResult
		code int
	}{
		{"the same runs", both, 0},
		{"a workload lost", good("serve_wire"), 1},
		{"every run of a workload invalid", append(good("serve_wire"), run("serve_churn", 0, false)), 1},
		{"one invalid run among valid ones", append(both, run("serve_churn", 0, false)), 1},
		{"one failing run of three", append(good("serve_wire"), run("serve_churn", 0, true), run("serve_churn", 0, true), run("serve_churn", 0.01, true)), 1},
	} {
		var out bytes.Buffer
		if code := compareFiles(&out, a, write("b.json", c.b...)); code != c.code {
			t.Errorf("%s: exit code %d, want %d\n%s", c.name, code, c.code, out.String())
		}
	}
}
