package engine

import (
	"testing"

	"repro/internal/core"
	"repro/internal/policy"
	"repro/internal/telemetry"
)

// This file is the dynamic counterpart of the hotpathalloc analyzer: the
// static check proves no allocating construct is reachable from the
// //thanos:hotpath roots, and these tests prove the runtime agrees. The
// batched path has the same contract in TestEngineDecideBatchZeroAlloc
// (race_test.go); here we pin the two single-packet entry points.

// TestDecideZeroAlloc pins the single-packet path: Engine.Decide rides the
// same //thanos:hotpath graph through the interpreter and fallback MUX.
func TestDecideZeroAlloc(t *testing.T) {
	e := newTestEngine(t, 1, minPolicySrc)
	fillRandom(t, e, 32, 7)
	for i := 0; i < 8; i++ {
		e.Decide()
	}
	if n := testing.AllocsPerRun(100, func() { e.Decide() }); n != 0 {
		t.Fatalf("Decide allocates %.1f times per call in steady state; want 0", n)
	}
}

var allocSink int

// TestCoreDecideZeroAlloc guards the hardware-faithful path the same way:
// core.FilterModule.Decide (pipeline execution + fallback resolution) must
// be allocation-free after the first packet. It lives here rather than in
// package core so every zero-alloc contract is enforced from one file.
func TestCoreDecideZeroAlloc(t *testing.T) {
	m, err := core.New(core.Config{
		Capacity: 32,
		Schema:   testSchema,
		Policy:   policy.MustParse(minPolicySrc),
	})
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 16; id++ {
		if err := m.Table().Add(id, []int64{int64(90 - id), int64(id * 100), 5000}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		m.Decide(0)
	}
	if n := testing.AllocsPerRun(100, func() {
		id, ok := m.Decide(0)
		if ok {
			allocSink = id
		}
	}); n != 0 {
		t.Fatalf("core Decide allocates %.1f times per call in steady state; want 0", n)
	}
}

// TestCoreDecideZeroAllocWithTelemetry re-pins the hardware-faithful path
// with the full instrument set attached — per-stage chain stats, decision
// counters and latency histogram. The telemetry acceptance criterion: observability may not cost the hot path
// a single heap allocation.
func TestCoreDecideZeroAllocWithTelemetry(t *testing.T) {
	m, err := core.New(core.Config{
		Capacity: 32,
		Schema:   testSchema,
		Policy:   policy.MustParse(minPolicySrc),
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	cs := telemetry.NewChainStats(reg, "thanos_core_chain", m.StageLabels(), 1)
	ds := telemetry.NewDecideStats(reg, "thanos_core", 1)
	m.AttachTelemetry(cs[0], ds[0])
	for id := 0; id < 16; id++ {
		if err := m.Table().Add(id, []int64{int64(90 - id), int64(id * 100), 5000}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 8; i++ {
		m.Decide(0)
	}
	if n := testing.AllocsPerRun(100, func() {
		id, ok := m.Decide(0)
		if ok {
			allocSink = id
		}
	}); n != 0 {
		t.Fatalf("instrumented core Decide allocates %.1f times per call; want 0", n)
	}
	if got := ds[0].Decisions.Value(); got == 0 {
		t.Error("decision counter did not advance")
	}
	if got := cs[0].Invocations[0].Value(); got == 0 {
		t.Error("stage 0 invocation counter did not advance")
	}
}
