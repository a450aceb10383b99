package engine

import (
	"fmt"
	"testing"

	"repro/internal/policy"
	"repro/internal/telemetry"
)

// BenchmarkEngineDecideBatch measures batched decision throughput as the
// shard count grows. Each iteration decides a 4096-packet batch under the
// resource-aware load-balancing policy over a 64-entry table; the reported
// decisions/s metric is the headline scaling number (near-linear up to
// GOMAXPROCS on multicore hosts, where 8 shards sustain ≥3x the 1-shard
// rate). Allocations are reported so the zero-alloc steady state is visible
// in the -benchmem column.
func BenchmarkEngineDecideBatch(b *testing.B) {
	const batch = 4096
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			e, err := New(Config{
				Shards:   shards,
				Capacity: 64,
				Schema:   testSchema,
				Policy:   policy.MustParse(testPolicySrc),
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
			b.StopTimer()
			perOp := b.Elapsed().Seconds() / float64(b.N)
			if perOp > 0 {
				b.ReportMetric(float64(batch)/perOp, "decisions/s")
			}
		})
	}
}

// BenchmarkEngineDecideBatchTelemetry is BenchmarkEngineDecideBatch with
// full telemetry attached (counters, chain stats, histograms) at a fixed 2
// shards — the instrumented column of the ≤5% overhead contract that
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
