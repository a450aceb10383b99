package engine

import (
	"fmt"
	"runtime"
	"sync"
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

// BenchmarkEngineWrite measures the cost of one propagated write (one row
// operation under each shard's lock, shard 0's first, which validates it) as
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

// BenchmarkEngineScaling is the shard-scaling table of EXPERIMENTS.md, the
// software analogue of the paper's replicated pipelines (§5.1.5): 4096-packet
// batches over a 64-entry table under testPolicySrc (the program of
// lb.PolicyResourceAware) at 1, 2, 4 and 8 shards. The engine decides on its
// callers, so each point runs one caller per shard, capped at GOMAXPROCS —
// shard counts beyond the core count add no parallelism. An op is one batch;
// the b.N batches are split across the callers, so ns/op is the aggregate
// time per batch and the 1-shard ns/op over the k-shard one is the speedup.
func BenchmarkEngineScaling(b *testing.B) {
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

			callers := min(shards, runtime.GOMAXPROCS(0))
			bufs := make([][]Packet, callers)
			for c := range bufs {
				bufs[c] = make([]Packet, batch)
				for i := range bufs[c] {
					bufs[c][i] = Packet{Key: uint64(i) * 0x9E3779B97F4A7C15}
				}
			}
			e.DecideBatch(bufs[0]) // warm the version-cached sets
			b.ResetTimer()
			var wg sync.WaitGroup
			for c, pkts := range bufs {
				n := b.N / callers
				if c < b.N%callers {
					n++
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < n; i++ {
						e.DecideBatch(pkts)
					}
				}()
			}
			wg.Wait()
			elapsed := b.Elapsed()
			decisions := float64(b.N) * batch
			b.ReportMetric(float64(callers), "callers")
			b.ReportMetric(float64(elapsed.Nanoseconds())/decisions, "ns/decision")
			b.ReportMetric(decisions/elapsed.Seconds()/1e6, "Mdecisions/s")
		})
	}
}
