package engine

import (
	"fmt"
	"testing"

	"repro/internal/policy"
	"repro/internal/telemetry"
)

// BenchmarkEngineDecideBatchTelemetry decides 4096-packet batches over a
// 64-entry table, like the EngineDecideBatch kernel of the checkpoint set
// (BenchmarkKernels in the root package), with full telemetry attached
// (counters, chain stats, histograms) at a fixed 2 shards — the instrumented
// column of the ≤5% overhead contract that
// TestTelemetryOverheadSmoke gates in CI.
func BenchmarkEngineDecideBatchTelemetry(b *testing.B) {
	const batch = 4096
	e, err := New(Config{
		Shards:    2,
		Capacity:  64,
		Schema:    testSchema,
		Policy:    policy.MustParse(testPolicySrc),
		Telemetry: telemetry.NewRegistry(),
	})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	fillRandom(b, e, 64, 1)

	pkts := make([]Packet, batch)
	for i := range pkts {
		pkts[i] = Packet{Key: uint64(i) * 0x9E3779B97F4A7C15}
	}
	e.DecideBatch(pkts) // warm up
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.DecideBatch(pkts)
	}
}

// BenchmarkEngineWrite measures the cost of one propagated write (the
// authoritative table, then one row operation under each shard's lock) as
// shards grow — the price of replica consistency, linear in the replica
// count like the paper's broadcast updates.
func BenchmarkEngineWrite(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			e, err := New(Config{
				Shards:   shards,
				Capacity: 64,
				Schema:   testSchema,
				Policy:   policy.MustParse(minPolicySrc),
			})
			if err != nil {
				b.Fatal(err)
			}
			defer e.Close()
			fillRandom(b, e, 64, 1)
			vals := []int64{0, 0, 0}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				vals[0] = int64(i)
				if err := e.Update(i%64, vals); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
