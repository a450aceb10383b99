package engine

import (
	"os"
	"testing"

	"repro/internal/policy"
	"repro/internal/telemetry"
)

func newTelemetryEngine(t testing.TB, shards int, src string, reg *telemetry.Registry) *Engine {
	t.Helper()
	e, err := New(Config{
		Shards:    shards,
		Capacity:  64,
		Schema:    testSchema,
		Policy:    policy.MustParse(src),
		Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

func snapCounter(t *testing.T, snap map[string]any, name string) uint64 {
	t.Helper()
	v, ok := snap[name]
	if !ok {
		t.Fatalf("snapshot missing %q (have %d metrics)", name, len(snap))
	}
	c, ok := v.(uint64)
	if !ok {
		t.Fatalf("snapshot[%q] is %T, want uint64", name, v)
	}
	return c
}

// TestEngineTelemetryCounters checks that the engine's metric set adds up:
// decision counts match the packets pushed through, every chain step is
// invoked once per decision (selectivity provenance), the batch-size
// histogram saw every batch, and the table counters reflect one table per
// shard.
func TestEngineTelemetryCounters(t *testing.T) {
	const (
		shards  = 2
		writes  = 32
		batch   = 128
		batches = 5
	)
	reg := telemetry.NewRegistry()
	e := newTelemetryEngine(t, shards, testPolicySrc, reg)
	fillRandom(t, e, writes, 11)

	pkts := make([]Packet, batch)
	for i := range pkts {
		pkts[i] = Packet{Key: uint64(i) * 0x9E3779B97F4A7C15}
	}
	for i := 0; i < batches; i++ {
		e.DecideBatch(pkts)
	}

	snap := reg.Snapshot()
	decisions := uint64(batch * batches)
	if got := snapCounter(t, snap, "thanos_engine_decisions_total"); got != decisions {
		t.Errorf("decisions_total = %d, want %d", got, decisions)
	}
	// Every decision executes the full chain, so each step's invocation
	// count equals the decision count; candidate counts shrink (or hold)
	// monotonically through the intersect chain only in expectation, but
	// step 0 (the table view) always yields the full table.
	labels := e.shards[0].snap.interp.StepLabels()
	var prevCand uint64
	for i := range labels {
		name := "thanos_engine_chain_step" + string(rune('0'+i)) + "_invocations_total"
		if got := snapCounter(t, snap, name); got != decisions {
			t.Errorf("%s = %d, want %d", name, got, decisions)
		}
		cand := snapCounter(t, snap, "thanos_engine_chain_step"+string(rune('0'+i))+"_candidates_total")
		if i == 0 {
			if want := decisions * writes; cand != want {
				t.Errorf("step0 candidates = %d, want %d (full table per decision)", cand, want)
			}
			prevCand = cand
		}
		_ = prevCand
	}
	// Each table write lands on the one table of every shard.
	if got := snapCounter(t, snap, "thanos_engine_table_adds_total"); got != uint64(writes*shards) {
		t.Errorf("table_adds_total = %d, want %d", got, writes*shards)
	}
	bh, ok := snap["thanos_engine_batch_size"].(telemetry.HistogramSnapshot)
	if !ok {
		t.Fatalf("batch_size snapshot is %T", snap["thanos_engine_batch_size"])
	}
	if bh.Count != batches {
		t.Errorf("batch_size histogram count = %d, want %d", bh.Count, batches)
	}
	if bh.Sum != decisions {
		t.Errorf("batch_size histogram sum = %d, want %d", bh.Sum, decisions)
	}
	if e.Telemetry() != reg {
		t.Error("Telemetry() did not return the configured registry")
	}
}

// TestEngineWriteAppliesOncePerShard pins the write amplification: a logical
// write is applied to the authority (uncounted) and once to each shard's one
// table, so N upserts of a present id on S shards count N·S table updates.
func TestEngineWriteAppliesOncePerShard(t *testing.T) {
	const (
		shards  = 3
		upserts = 40
	)
	reg := telemetry.NewRegistry()
	e := newTelemetryEngine(t, shards, testPolicySrc, reg)
	for i := 0; i <= upserts; i++ { // the first upsert adds, the rest update
		if err := e.Upsert(7, []int64{int64(i), 1, 1}); err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	if got := snapCounter(t, snap, "thanos_engine_table_updates_total"); got != upserts*shards {
		t.Errorf("table_updates_total = %d, want %d (one apply per shard per upsert)", got, upserts*shards)
	}
}

// TestEngineDecideBatchZeroAllocWithTelemetry is the acceptance criterion
// for the telemetry layer: the fully instrumented batched path — counters,
// chain stats and histograms — still performs zero steady-state heap
// allocations.
func TestEngineDecideBatchZeroAllocWithTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	e := newTelemetryEngine(t, 4, testPolicySrc, reg)
	fillRandom(t, e, 64, 17)

	pkts := make([]Packet, 256)
	for i := range pkts {
		pkts[i] = Packet{Key: uint64(i) * 0x9E3779B97F4A7C15, Out: i % 2}
	}
	e.DecideBatch(pkts) // warm the version-cached sets

	allocs := testing.AllocsPerRun(100, func() {
		e.DecideBatch(pkts)
	})
	if allocs != 0 {
		t.Fatalf("instrumented DecideBatch allocates %.1f times per batch, want 0", allocs)
	}
}

// TestTelemetryOverheadSmoke is the CI overhead gate: enabled with
// THANOS_OVERHEAD_SMOKE=1, it re-verifies the instrumented zero-alloc
// contract and fails if full telemetry costs more than 5% of batched
// decision throughput. Benchmarks take the best of
// three runs to shave scheduler noise.
func TestTelemetryOverheadSmoke(t *testing.T) {
	if os.Getenv("THANOS_OVERHEAD_SMOKE") != "1" {
		t.Skip("set THANOS_OVERHEAD_SMOKE=1 to run the overhead gate")
	}
	reg := telemetry.NewRegistry()
	inst := newTelemetryEngine(t, 2, testPolicySrc, reg)
	fillRandom(t, inst, 64, 17)
	plain := newTestEngine(t, 2, testPolicySrc)
	fillRandom(t, plain, 64, 17)

	pkts := make([]Packet, 512)
	for i := range pkts {
		pkts[i] = Packet{Key: uint64(i) * 0x9E3779B97F4A7C15}
	}
	inst.DecideBatch(pkts)
	plain.DecideBatch(pkts)

	if allocs := testing.AllocsPerRun(50, func() { inst.DecideBatch(pkts) }); allocs != 0 {
		t.Fatalf("instrumented DecideBatch allocates %.1f times per batch, want 0", allocs)
	}

	// Interleave the instrumented and plain measurements so a slow-drifting
	// co-tenant (cache or memory-bandwidth contention) hits both columns
	// alike instead of skewing whichever engine it happened to overlap;
	// minima then compare like against like.
	measure := func(e *Engine) float64 {
		r := testing.Benchmark(func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				e.DecideBatch(pkts)
			}
		})
		return float64(r.NsPerOp())
	}
	// Alternating which engine goes first each round keeps a ramping or
	// decaying contention episode from always landing on the same column.
	instNs, plainNs := 0.0, 0.0
	for i := 0; i < 4; i++ {
		a, b := inst, plain
		if i%2 == 1 {
			a, b = plain, inst
		}
		na, nb := measure(a), measure(b)
		if a == plain {
			na, nb = nb, na
		}
		if instNs == 0 || na < instNs {
			instNs = na
		}
		if plainNs == 0 || nb < plainNs {
			plainNs = nb
		}
	}
	overhead := instNs/plainNs - 1
	t.Logf("plain %.0f ns/batch, instrumented %.0f ns/batch, overhead %.2f%%", plainNs, instNs, overhead*100)
	if overhead > 0.05 {
		t.Fatalf("telemetry overhead %.2f%% exceeds the 5%% budget", overhead*100)
	}
}
