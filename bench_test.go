// Benchmarks regenerating every table and figure of the paper's evaluation,
// plus the design ablations DESIGN.md calls out. Each BenchmarkTableN /
// BenchmarkFigN target computes the corresponding experiment (the network
// figures at reduced scale so `go test -bench=.` stays tractable; the
// full-scale numbers come from cmd/thanosbench and are recorded in
// EXPERIMENTS.md).
package thanos_test

import (
	"math/rand"
	"sort"
	"testing"

	thanos "repro"
	"repro/internal/asic"
	"repro/internal/benes"
	"repro/internal/bitvec"
	"repro/internal/experiments"
	"repro/internal/experiments/runner"
	"repro/internal/lb"
	"repro/internal/pipeline"
	"repro/internal/policy"
	"repro/internal/smbm"
)

// BenchmarkTable1_SMBM regenerates Table 1: SMBM area/clock across the
// published (N, m) grid.
func BenchmarkTable1_SMBM(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Table1()
		if len(res.Rows) != 12 {
			b.Fatal("bad table")
		}
	}
}

// BenchmarkTable2_FPU regenerates Table 2: UFPU/BFPU area/clock vs N.
func BenchmarkTable2_FPU(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Table2()
		if len(res.Rows) != 8 {
			b.Fatal("bad table")
		}
	}
}

// BenchmarkTable3_Cell regenerates Table 3: Cell area/clock vs K.
func BenchmarkTable3_Cell(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Table3()
		if len(res.Rows) != 4 {
			b.Fatal("bad table")
		}
	}
}

// BenchmarkTable4_Pipeline regenerates Table 4: pipeline area/clock vs n, k.
func BenchmarkTable4_Pipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.Table4()
		if len(res.Rows) != 9 {
			b.Fatal("bad table")
		}
	}
}

// BenchmarkTable5_PolicyCompile regenerates Table 5: compiling the five
// example policies onto the pipeline (placement + Benes routing).
func BenchmarkTable5_PolicyCompile(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table5()
		if err != nil || len(res.Entries) != 5 {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig16_L4LB runs the Figure 16 experiment (reduced query count):
// resource-aware vs random placement on the same workload.
func BenchmarkFig16_L4LB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig16(lb.DefaultClusterConfig(1), 400)
		if err != nil {
			b.Fatal(err)
		}
		if res.MedianRatio > 1.2 {
			b.Fatalf("median ratio %.2f out of band", res.MedianRatio)
		}
	}
}

// BenchmarkFig17_Routing runs the Figure 17 experiment at reduced scale:
// three routing policies at one load.
func BenchmarkFig17_Routing(b *testing.B) {
	cfg := experiments.DefaultNetConfig(3)
	cfg.Flows = 80
	cfg.SizeScale = 0.05
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig17(cfg, []float64{0.8}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig17_RoutingParallel is BenchmarkFig17_Routing with the
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

// BenchmarkFig18_DRILL runs the Figure 18 experiment at reduced scale:
// ECMP vs min-queue vs DRILL at one load.
func BenchmarkFig18_DRILL(b *testing.B) {
	cfg := experiments.DefaultNetConfig(4)
	cfg.Flows = 80
	cfg.SizeScale = 0.05
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig18(cfg, []float64{0.8}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig19_Caching runs the Figure 19 experiment at reduced scale:
// in-network caching of popular graph filter queries.
func BenchmarkFig19_Caching(b *testing.B) {
	cfg := experiments.DefaultFig19Config(6)
	cfg.Queries = 400
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig19(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.HitFraction == 0 {
			b.Fatal("no cache hits")
		}
	}
}

// BenchmarkFilterModuleDecide measures the end-to-end per-packet decision
// on the compiled pipeline (the paper's default design point, 128-entry
// table).
func BenchmarkFilterModuleDecide(b *testing.B) {
	m, err := thanos.NewFilterModule(thanos.ModuleConfig{
		Capacity: 128,
		Schema:   thanos.Schema{Attrs: []string{"cpu", "mem", "bw"}},
		Policy: thanos.MustParsePolicy(`
let ok = intersect(filter(table, cpu < 70), filter(table, mem > 1024), filter(table, bw > 2000))
out primary = random(ok)
out backup  = random(table)
fallback primary -> backup
`),
	})
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	for id := 0; id < 128; id++ {
		if err := m.Table().Add(id, []int64{int64(r.Intn(100)), int64(r.Intn(8192)), int64(r.Intn(10000))}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := m.Decide(0); !ok {
			b.Fatal("no decision")
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

// BenchmarkSMBMUpdate measures Update (delete + add, 4 cycles in hardware)
// at the paper's default table size, under its worst-case shift rather than
// the probe-processing steady state. Dimension 0 gets a fresh value per
// call, but dimensions 1–3 get the constants 1, 2 and 3: after the first
// 128 calls each of those columns is one 128-entry tie run, and because ids
// are updated round-robin the updated entry is always the oldest in its run.
// The FIFO tie-break (§5.1.2) re-inserts it after every equal value, so each
// call rotates it from the front of three columns to their back: 127 moved
// entries and 127 renumbered positions per dimension. That is the ≈600 ns it
// has held since BENCH_4; rewriting each entry's own values moves nothing
// and costs well under half of it (EXPERIMENTS.md).
func BenchmarkSMBMUpdate(b *testing.B) {
	table := smbm.New(128, 4)
	r := rand.New(rand.NewSource(5))
	for id := 0; id < 128; id++ {
		if err := table.Add(id, []int64{int64(r.Intn(1000)), int64(r.Intn(1000)), int64(r.Intn(1000)), int64(r.Intn(1000))}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := i % 128
		if err := table.Update(id, []int64{int64(i % 997), 1, 2, 3}); err != nil {
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

// benchVectors builds a deterministic pair of 512-bit vectors (~50% and
// ~33% dense) for the kernel microbenchmarks below.
func benchVectors() (a, b *bitvec.Vector) {
	const n = 512
	r := rand.New(rand.NewSource(9))
	a, b = bitvec.New(n), bitvec.New(n)
	for i := 0; i < n; i++ {
		if r.Intn(2) == 0 {
			a.Set(i)
		}
		if r.Intn(3) == 0 {
			b.Set(i)
		}
	}
	return a, b
}

// BenchmarkBitvec* track the word-parallel kernels individually; the same
// workloads are pinned in the perfcheck checkpoint set.

func BenchmarkBitvecAnd(b *testing.B) {
	x, y := benchVectors()
	out := bitvec.New(x.Len())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.And(x, y)
	}
}

func BenchmarkBitvecOr(b *testing.B) {
	x, y := benchVectors()
	out := bitvec.New(x.Len())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.Or(x, y)
	}
}

func BenchmarkBitvecCount(b *testing.B) {
	x, _ := benchVectors()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if x.Count() == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkBitvecFirstSet(b *testing.B) {
	x, _ := benchVectors()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if x.FirstSet() < 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkBitvecNextSetCyclic(b *testing.B) {
	x, _ := benchVectors()
	n := x.Len()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if x.NextSetCyclic(i%n) < 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkBitvecRank(b *testing.B) {
	x, _ := benchVectors()
	n := x.Len()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = x.Rank(i % (n + 1))
	}
}

func BenchmarkBitvecSelect(b *testing.B) {
	x, _ := benchVectors()
	c := x.Count()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if x.Select(i%c) < 0 {
			b.Fatal("select out of range")
		}
	}
}

func BenchmarkBitvecAndFirstSet(b *testing.B) {
	x, y := benchVectors()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if bitvec.AndFirstSet(x, y) < 0 {
			b.Fatal("empty intersection")
		}
	}
}

func BenchmarkBitvecAndNextSetCyclic(b *testing.B) {
	x, y := benchVectors()
	n := x.Len()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if bitvec.AndNextSetCyclic(x, y, i%n) < 0 {
			b.Fatal("empty intersection")
		}
	}
}

func BenchmarkBitvecAndInto(b *testing.B) {
	x, y := benchVectors()
	z := bitvec.New(x.Len())
	z.Or(x, y)
	out := bitvec.New(x.Len())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out.AndInto(x, y, z)
	}
}
