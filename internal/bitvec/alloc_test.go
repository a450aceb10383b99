package bitvec

import (
	"math/rand"
	"testing"
)

// The fused kernels exist so hot paths can skip materializing intermediate
// vectors; that only pays off if the kernels themselves never touch the
// heap: every word-parallel kernel added for the select path must run
// allocation-free.

var allocSink int

func TestKernelsZeroAlloc(t *testing.T) {
	const n = 512
	r := rand.New(rand.NewSource(9))
	a, b := New(n), New(n)
	for i := 0; i < n; i++ {
		if r.Intn(2) == 0 {
			a.Set(i)
		}
		if r.Intn(3) == 0 {
			b.Set(i)
		}
	}
	c := a.Clone()
	out := New(n)
	acc, rem := New(n), New(n)
	srcs := []*Vector{a, b, c}

	cases := map[string]func(){
		"Rank":             func() { allocSink = a.Rank(n / 2) },
		"Select":           func() { allocSink = a.Select(10) },
		"AndFirstSet":      func() { allocSink = AndFirstSet(a, b) },
		"AndNextSetCyclic": func() { allocSink = AndNextSetCyclic(a, b, n/3) },
		"AndInto":          func() { out.AndInto(srcs...) },
		"OrAndNot":         func() { OrAndNot(acc, rem, c) },
	}
	for name, fn := range cases {
		fn() // warm up
		if got := testing.AllocsPerRun(100, fn); got != 0 {
			t.Errorf("%s allocates %.1f times per call, want 0", name, got)
		}
	}
}

// TestNewBatchSingleBacking pins the arena property NewBatch exists for:
// one batch performs a constant number of allocations (headers + backing)
// regardless of slot count, instead of one backing array per vector.
func TestNewBatchSingleBacking(t *testing.T) {
	perBatch := testing.AllocsPerRun(100, func() {
		batch := NewBatch(512, 16)
		allocSink = batch[15].Len()
	})
	// 3 allocations: the backing word arena, the Vector header array, and
	// the []*Vector pointer slice.
	if perBatch > 3 {
		t.Errorf("NewBatch(512, 16) costs %.1f allocations, want <= 3", perBatch)
	}
}
