package perfcheck

import (
	"io"
	"path/filepath"
	"strings"
	"testing"
)

func mkCheckpoint(bench map[string]float64) *Checkpoint {
	cp := &Checkpoint{Schema: Schema, Benchmarks: map[string]Result{}}
	for name, ns := range bench {
		cp.Benchmarks[name] = Result{Iters: 100, NsPerOp: ns, RepsNs: []float64{ns}}
	}
	return cp
}

func TestCompareGates(t *testing.T) {
	base := mkCheckpoint(map[string]float64{
		"steady": 100, "faster": 100, "slower": 100, "gone": 50,
	})
	fresh := mkCheckpoint(map[string]float64{
		"steady": 105, "faster": 40, "slower": 120, "new": 10,
	})
	cmp := Compare(base, fresh, nil)
	if !cmp.Failed() {
		t.Fatal("20% slowdown did not fail the 10% gate")
	}
	byName := map[string]Delta{}
	for _, d := range cmp.Deltas {
		byName[d.Name] = d
	}
	if byName["steady"].Regression {
		t.Error("5% slowdown flagged as regression at 10% threshold")
	}
	if byName["faster"].Regression {
		t.Error("speedup flagged as regression")
	}
	if !byName["slower"].Regression {
		t.Error("20% slowdown not flagged")
	}
	if len(cmp.Added) != 1 || cmp.Added[0] != "new" {
		t.Errorf("Added = %v, want [new]", cmp.Added)
	}
	if len(cmp.Removed) != 1 || cmp.Removed[0] != "gone" {
		t.Errorf("Removed = %v, want [gone]", cmp.Removed)
	}

	// Within threshold everywhere -> gate passes.
	ok := Compare(base, mkCheckpoint(map[string]float64{
		"steady": 100, "faster": 100, "slower": 109,
	}), nil)
	if ok.Failed() {
		t.Fatal("within-threshold comparison failed the gate")
	}

	// A wider per-benchmark threshold tolerates what the default rejects.
	wide := Compare(base, mkCheckpoint(map[string]float64{
		"slower": 120,
	}), map[string]float64{"slower": 0.50})
	if wide.Failed() {
		t.Fatal("20% slowdown failed a 50% per-benchmark gate")
	}
}

func TestCompareCalibration(t *testing.T) {
	// The whole machine got 30% slower, including the calibration spin:
	// normalized ratios are ~1 and the gate must pass.
	base := mkCheckpoint(map[string]float64{CalibrationName: 100, "hot": 100})
	slowMachine := mkCheckpoint(map[string]float64{CalibrationName: 130, "hot": 130})
	cmp := Compare(base, slowMachine, nil)
	if cmp.CalRatio != 1.3 {
		t.Errorf("CalRatio = %v, want 1.3", cmp.CalRatio)
	}
	if cmp.Failed() {
		t.Error("uniform machine slowdown failed the normalized gate")
	}

	// A real regression on a steady machine still fails.
	realSlow := mkCheckpoint(map[string]float64{CalibrationName: 100, "hot": 130})
	if !Compare(base, realSlow, nil).Failed() {
		t.Error("30% code regression passed the gate")
	}

	// Without a calibration pair the raw ratio gates, unchanged.
	if !Compare(mkCheckpoint(map[string]float64{"hot": 100}),
		mkCheckpoint(map[string]float64{"hot": 130}), nil).Failed() {
		t.Error("uncalibrated 30% slowdown passed the gate")
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cp.json")
	cp, err := Run([]Benchmark{
		{Name: "noop", Iters: 10, Reps: 2, Setup: func() (func(int), error) {
			return func(int) {}, nil
		}},
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if err := cp.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	res, ok := got.Benchmarks["noop"]
	if !ok || res.Iters != 10 || len(res.RepsNs) != 2 {
		t.Fatalf("round trip lost data: %+v", got.Benchmarks)
	}
	if res.NsPerOp != min(res.RepsNs[0], res.RepsNs[1]) {
		t.Errorf("NsPerOp %v is not the min of reps %v", res.NsPerOp, res.RepsNs)
	}
}

// TestFullSetIsWellFormed sanity-checks the pinned set without running it:
// unique names, positive iteration counts, and the churn workload's
// repetition-safety invariant (iters a multiple of a full add/update/delete
// cycle, so every repetition starts from the same table state).
func TestFullSetIsWellFormed(t *testing.T) {
	seen := map[string]bool{}
	for _, b := range FullSet() {
		if b.Name == "" || strings.ContainsAny(b.Name, " \t") {
			t.Errorf("bad benchmark name %q", b.Name)
		}
		if seen[b.Name] {
			t.Errorf("duplicate benchmark %q", b.Name)
		}
		seen[b.Name] = true
		if b.Iters <= 0 {
			t.Errorf("%s: non-positive iters", b.Name)
		}
		if b.Name == "SMBMUpdateChurn" && b.Iters%churnCycle != 0 {
			t.Errorf("SMBMUpdateChurn iters %d not a multiple of the %d-op cycle", b.Iters, churnCycle)
		}
	}
	for _, want := range []string{"FilterModuleDecide", "SMBMUpdate", "SMBMUpdateChurn", "SMBMInstall1024", "EngineDecideBatch", "EngineDecideBatchLB1024", "EngineDecideBatchLB1024x2", "EngineDecideBatchDRILL1024", "UFPURandomSelect1024"} {
		if !seen[want] {
			t.Errorf("tracked benchmark %s missing from the set", want)
		}
	}
}

// TestMergeTakesMinimum pins the retry-gate contract: merging a
// re-measurement keeps the minimum across runs and appends the new
// repetitions, and benchmarks absent from the original are not adopted.
func TestMergeTakesMinimum(t *testing.T) {
	cp := &Checkpoint{Benchmarks: map[string]Result{
		"A": {Iters: 10, NsPerOp: 100, RepsNs: []float64{120, 100}},
		"B": {Iters: 10, NsPerOp: 50, RepsNs: []float64{50}},
	}}
	cp.Merge(&Checkpoint{Benchmarks: map[string]Result{
		"A": {Iters: 10, NsPerOp: 80, RepsNs: []float64{90, 80}},
		"B": {Iters: 10, NsPerOp: 70, RepsNs: []float64{70}},
		"C": {Iters: 10, NsPerOp: 1, RepsNs: []float64{1}},
	}})
	if got := cp.Benchmarks["A"].NsPerOp; got != 80 {
		t.Errorf("A min = %v after merge, want 80", got)
	}
	if got := len(cp.Benchmarks["A"].RepsNs); got != 4 {
		t.Errorf("A has %d reps after merge, want 4", got)
	}
	if got := cp.Benchmarks["B"].NsPerOp; got != 50 {
		t.Errorf("B min = %v after merge, want 50 (slower re-run must not raise it)", got)
	}
	if _, ok := cp.Benchmarks["C"]; ok {
		t.Error("merge adopted benchmark C absent from the original checkpoint")
	}
}

func TestSubsetPreservesOrder(t *testing.T) {
	set := []Benchmark{{Name: "A"}, {Name: "B"}, {Name: "C"}}
	got := Subset(set, map[string]bool{"C": true, "A": true, "X": true})
	if len(got) != 2 || got[0].Name != "A" || got[1].Name != "C" {
		t.Errorf("Subset = %v, want [A C] in set order", got)
	}
}

// TestCompareUsesWorseCalibration pins the two-yardstick normalization: a
// benchmark inflated purely by memory contention (tracked by the streaming
// calibration, invisible to the ALU spin) must not gate, and a baseline
// without the memory calibration falls back to ALU-only normalization.
func TestCompareUsesWorseCalibration(t *testing.T) {
	base := &Checkpoint{Benchmarks: map[string]Result{
		CalibrationName:    {NsPerOp: 100},
		MemCalibrationName: {NsPerOp: 1000},
		"Hot":              {NsPerOp: 500},
	}}
	fresh := &Checkpoint{Benchmarks: map[string]Result{
		CalibrationName:    {NsPerOp: 100},  // ALU speed unchanged
		MemCalibrationName: {NsPerOp: 1300}, // memory 30% contended
		"Hot":              {NsPerOp: 625},  // +25% raw, within mem inflation
	}}
	cmp := Compare(base, fresh, nil)
	if cmp.CalRatio != 1.3 {
		t.Errorf("CalRatio = %v, want 1.3 (worse of alu 1.0, mem 1.3)", cmp.CalRatio)
	}
	for _, d := range cmp.Deltas {
		if d.Name == "Hot" && d.Regression {
			t.Errorf("Hot flagged: norm %v vs threshold %v, but inflation is within memory contention", d.Norm, d.Threshold)
		}
	}

	delete(base.Benchmarks, MemCalibrationName)
	cmp = Compare(base, fresh, nil)
	if cmp.CalRatio != 1.0 {
		t.Errorf("CalRatio = %v without baseline mem calibration, want ALU-only 1.0", cmp.CalRatio)
	}
}
