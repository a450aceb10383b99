// Benchmarks regenerating every table and figure of the paper's evaluation,
// plus the design ablations DESIGN.md calls out. BenchmarkKernels runs the
// pinned checkpoint set, which holds each table, each figure (the network
// figures at reduced scale so `go test -bench=.` stays tractable; the
// full-scale numbers come from cmd/thanosbench and are recorded in
// EXPERIMENTS.md) and the hot-path kernels; the benchmarks below it time what
// the set has no kernel for.
package thanos_test

import (
	"math/rand"
	"sort"
	"testing"

	"repro/internal/asic"
	"repro/internal/benes"
	"repro/internal/bitvec"
	"repro/internal/experiments"
	"repro/internal/experiments/runner"
	"repro/internal/lb"
	"repro/internal/perfcheck"
	"repro/internal/pipeline"
	"repro/internal/policy"
	"repro/internal/smbm"
)

// BenchmarkKernels times every entry of perfcheck.FullSet — the closures
// `make check-perf` times at pinned iteration counts — at go test's
// calibrated counts, one sub-benchmark per entry
// (`go test -bench 'Kernels/EngineDecideBatchLB1024' .`). Each round starts
// from a fresh Setup, so a workload that cycles through its iteration index
// (SMBMUpdateChurn) always starts from its initial table.
func BenchmarkKernels(b *testing.B) {
	for _, k := range perfcheck.FullSet() {
		b.Run(k.Name, func(b *testing.B) {
			body, err := k.Setup()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				body(i)
			}
		})
	}
}

// BenchmarkFig17_RoutingParallel is Fig17_Routing with the
// (policy, load) grid fanned across CPUs by the sweep runner. Results are
// identical to the serial run; wall-clock shrinks with available cores (on a
// single-CPU machine it matches the serial benchmark).
func BenchmarkFig17_RoutingParallel(b *testing.B) {
	cfg := experiments.DefaultNetConfig(3)
	cfg.Flows = 80
	cfg.SizeScale = 0.05
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig17With(cfg, []float64{0.8}, runner.NewPool()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSorted compares min-finding on the SMBM's sorted
// dimension (a priority encode over the masked list) against a linear scan
// of an unsorted array — the data-structure choice §5.1.1 motivates.
func BenchmarkAblationSorted(b *testing.B) {
	const n = 512
	table := smbm.New(n, 1)
	vals := make([]int64, n)
	r := rand.New(rand.NewSource(7))
	for id := 0; id < n; id++ {
		vals[id] = int64(r.Intn(1 << 20))
		if err := table.Add(id, []int64{vals[id]}); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("smbm-sorted-dim", func(b *testing.B) {
		d := table.Dim(0)
		for i := 0; i < b.N; i++ {
			if d.ID(0) < 0 { // min = head of the sorted dimension
				b.Fatal("impossible")
			}
		}
	})
	b.Run("unsorted-linear-scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			best, bestV := -1, int64(1<<62)
			for id, v := range vals {
				if v < bestV {
					best, bestV = id, v
				}
			}
			if best < 0 {
				b.Fatal("impossible")
			}
		}
	})
}

// BenchmarkAblationEncoding compares the bit-vector table encoding (word-
// wise set operations, §5.2.2) against sorted id-list merging.
func BenchmarkAblationEncoding(b *testing.B) {
	const n = 512
	r := rand.New(rand.NewSource(9))
	va, vb := bitvec.New(n), bitvec.New(n)
	var la, lbs []int
	for i := 0; i < n; i++ {
		if r.Intn(2) == 0 {
			va.Set(i)
			la = append(la, i)
		}
		if r.Intn(2) == 0 {
			vb.Set(i)
			lbs = append(lbs, i)
		}
	}
	b.Run("bitvector-and", func(b *testing.B) {
		out := bitvec.New(n)
		for i := 0; i < b.N; i++ {
			out.And(va, vb)
		}
	})
	b.Run("idlist-merge", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			out := make([]int, 0, len(la))
			x, y := 0, 0
			for x < len(la) && y < len(lbs) {
				switch {
				case la[x] == lbs[y]:
					out = append(out, la[x])
					x++
					y++
				case la[x] < lbs[y]:
					x++
				default:
					y++
				}
			}
			sort.Ints(out) // keep the comparison honest about output form
		}
	})
}

// BenchmarkAblationCrossbar measures Benes-network routing cost (the
// compile-time step §5.3.2 trades for half the wiring area of a monolithic
// crossbar).
func BenchmarkAblationCrossbar(b *testing.B) {
	for _, n := range []int{8, 16, 64} {
		nw, err := benes.New(n)
		if err != nil {
			b.Fatal(err)
		}
		r := rand.New(rand.NewSource(3))
		perm := r.Perm(n)
		b.Run(sizeName(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := nw.Route(perm); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func sizeName(n int) string {
	switch n {
	case 8:
		return "n8"
	case 16:
		return "n16"
	default:
		return "n64"
	}
}

// BenchmarkPolicyCompileDefault measures compiling the Figure 14 policy
// onto the default pipeline.
func BenchmarkPolicyCompileDefault(b *testing.B) {
	pol := policy.MustParse(lb.PolicyResourceAware)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := policy.Compile(pol, lb.Schema, pipeline.DefaultParams()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAsicModel covers the analytic-model hot path used across the
// tables.
func BenchmarkAsicModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = asic.PipelineArea(128, 8, 8, 4, 2)
		_ = asic.SMBMArea(512, 8)
		_ = asic.SMBMClockGHz(512, 8)
	}
}
