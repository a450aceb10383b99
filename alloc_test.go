// Allocation-regression tests for the steady-state datapath: once a filter
// module is built and its table populated, per-packet policy execution must
// not touch the heap (the software analogue of the hardware's fixed
// registers). These pin the zero-allocation contract the benchmarks measure,
// so a regression fails `go test` rather than silently inflating ns/op.
package thanos_test

import (
	"math/rand"
	"testing"

	thanos "repro"
	"repro/internal/policy"
)

var decideSchema = thanos.Schema{Attrs: []string{"cpu", "mem", "bw"}}

const decidePolicy = `
let ok = intersect(filter(table, cpu < 70), filter(table, mem > 1024), filter(table, bw > 2000))
out primary = random(ok)
out backup  = random(table)
fallback primary -> backup
`

func buildDecideModule(t testing.TB) *thanos.FilterModule {
	m, err := thanos.NewFilterModule(thanos.ModuleConfig{
		Capacity: 128,
		Schema:   decideSchema,
		Policy:   thanos.MustParsePolicy(decidePolicy),
	})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	for id := 0; id < 128; id++ {
		if err := m.Table().Add(id, []int64{int64(r.Intn(100)), int64(r.Intn(8192)), int64(r.Intn(10000))}); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// TestFilterModuleDecideZeroAlloc asserts the compiled-pipeline per-packet
// path (Process + fallback Resolve + priority encode) is allocation-free in
// steady state.
func TestFilterModuleDecideZeroAlloc(t *testing.T) {
	m := buildDecideModule(t)
	if _, ok := m.Decide(0); !ok {
		t.Fatal("no decision")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		if _, ok := m.Decide(0); !ok {
			t.Fatal("no decision")
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Decide allocates %.1f times per packet, want 0", allocs)
	}
}

// TestFilterModuleProcessZeroAlloc asserts the raw filter evaluation (all
// pipeline stages, no resolution) is allocation-free too, and that writes to
// the table between packets don't reintroduce allocations.
func TestFilterModuleProcessZeroAlloc(t *testing.T) {
	m := buildDecideModule(t)
	if _, err := m.Process(); err != nil {
		t.Fatal(err)
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		i++
		if err := m.Table().Update(i%128, []int64{int64(i % 97), 2048, 4000}); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Process(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Update+Process allocates %.1f times per packet, want 0", allocs)
	}
}

// TestModuleDecideZeroAlloc asserts the interpreted decision path — the
// step-major Interp.DecideBatch, which Module.Decide runs for one packet and
// the sharded engine for a whole shard visit (front draws, fallback
// resolution on ids) — is allocation-free in steady state, with table writes
// re-running the static phase: for Module.Decide, and for a batch of every
// size from 1 to 300 once a 300-packet batch has grown the scratch.
func TestModuleDecideZeroAlloc(t *testing.T) {
	m, err := thanos.NewModule(128, decideSchema, thanos.MustParsePolicy(decidePolicy))
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	for id := 0; id < 128; id++ {
		if err := m.Upsert(id, []int64{int64(r.Intn(100)), int64(r.Intn(8192)), int64(r.Intn(10000))}); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		i++
		if i%8 == 0 {
			if err := m.Table.Update(i%128, []int64{int64(i % 97), 2048, 4000}); err != nil {
				t.Fatal(err)
			}
		}
		if _, ok := m.Decide(); !ok {
			t.Fatal("no decision")
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Module.Decide allocates %.1f times per packet, want 0", allocs)
	}

	it, err := policy.NewInterp(m.Table, decideSchema, m.Policy)
	if err != nil {
		t.Fatal(err)
	}
	it.DecideBatch(it.Batch(300))
	for n := 300; n >= 1; n-- {
		allocs := testing.AllocsPerRun(3, func() {
			i++
			if i%2 == 0 {
				if err := m.Table.Update(i%128, []int64{int64(i % 97), 2048, 4000}); err != nil {
					t.Fatal(err)
				}
			}
			outs := it.Batch(n)
			for j := range outs {
				outs[j] = j % 2
			}
			if failed := it.DecideBatch(outs); failed != 0 || outs[n-1] < 0 {
				t.Fatal("no decision")
			}
		})
		if allocs != 0 {
			t.Fatalf("steady-state DecideBatch of %d allocates %.1f times per batch, want 0", n, allocs)
		}
	}
}
