package bitvec

import (
	"testing"
)

// fuzzWidths are the vector widths the fuzzer exercises: one bit below, at,
// and above a word boundary, plus an exact multi-word width. Word-boundary
// arithmetic (final-word trimming, cross-word scans) is where bit-vector
// bugs live.
var fuzzWidths = []int{63, 64, 65, 128}

// bitAt derives a deterministic bit stream from the fuzz payload: bit i of
// stream salt. Empty payloads yield all zeros.
func bitAt(data []byte, salt, i int) bool {
	if len(data) == 0 {
		return false
	}
	j := i + salt*7
	return data[(j/8)%len(data)]>>(j%8)&1 == 1
}

// FuzzVectorOps drives every Vector operation against a []bool reference
// model on word-boundary widths, from fuzzer-chosen bit patterns.
func FuzzVectorOps(f *testing.F) {
	f.Add(uint8(0), []byte{})
	f.Add(uint8(1), []byte{0xff})
	f.Add(uint8(2), []byte{0xaa, 0x55})
	f.Add(uint8(3), []byte{0x01, 0x00, 0x80, 0xfe, 0x37})
	f.Fuzz(func(t *testing.T, sel uint8, data []byte) {
		n := fuzzWidths[int(sel)%len(fuzzWidths)]

		// Build two vectors and their models from the payload.
		a, b := New(n), New(n)
		ma, mb := make([]bool, n), make([]bool, n)
		for i := 0; i < n; i++ {
			if bitAt(data, 0, i) {
				a.Set(i)
				ma[i] = true
			}
			if bitAt(data, 1, i) {
				b.Set(i)
				mb[i] = true
			}
		}

		checkModel := func(name string, v *Vector, m []bool) {
			t.Helper()
			count, first, last := 0, -1, -1
			for i, bit := range m {
				if v.Get(i) != bit {
					t.Fatalf("%s: bit %d = %v, model %v (n=%d)", name, i, v.Get(i), bit, n)
				}
				if bit {
					count++
					if first == -1 {
						first = i
					}
					last = i
				}
			}
			if v.Count() != count {
				t.Fatalf("%s: Count = %d, model %d (n=%d)", name, v.Count(), count, n)
			}
			if v.Any() != (count > 0) || v.None() != (count == 0) {
				t.Fatalf("%s: Any/None inconsistent with count %d", name, count)
			}
			if v.FirstSet() != first {
				t.Fatalf("%s: FirstSet = %d, model %d", name, v.FirstSet(), first)
			}
			if v.LastSet() != last {
				t.Fatalf("%s: LastSet = %d, model %d", name, v.LastSet(), last)
			}
			ids := v.IDs()
			if len(ids) != count {
				t.Fatalf("%s: IDs has %d entries, model %d", name, len(ids), count)
			}
			j := 0
			for i, bit := range m {
				if bit {
					if ids[j] != i {
						t.Fatalf("%s: IDs[%d] = %d, model %d", name, j, ids[j], i)
					}
					j++
				}
			}
		}

		checkModel("a", a, ma)
		checkModel("b", b, mb)

		// Boolean operations against the model, including the complement's
		// final-word trim (Not must never set bits beyond the width).
		or, and, andnot, not := New(n), New(n), New(n), New(n)
		or.Or(a, b)
		and.And(a, b)
		andnot.AndNot(a, b)
		not.Not(a)
		mor, mand, mandnot, mnot := make([]bool, n), make([]bool, n), make([]bool, n), make([]bool, n)
		for i := 0; i < n; i++ {
			mor[i] = ma[i] || mb[i]
			mand[i] = ma[i] && mb[i]
			mandnot[i] = ma[i] && !mb[i]
			mnot[i] = !ma[i]
		}
		checkModel("or", or, mor)
		checkModel("and", and, mand)
		checkModel("andnot", andnot, mandnot)
		checkModel("not", not, mnot)

		// Set-relation and copy operations.
		if got := and.IsSubset(a); !got {
			t.Fatal("a∩b ⊄ a")
		}
		if got := a.IsSubset(or); !got {
			t.Fatal("a ⊄ a∪b")
		}
		msub := true
		for i := 0; i < n; i++ {
			if ma[i] && !mb[i] {
				msub = false
				break
			}
		}
		if a.IsSubset(b) != msub {
			t.Fatalf("IsSubset(a,b) = %v, model %v", a.IsSubset(b), msub)
		}
		if eq := a.Equal(b); eq != (andnot.None() && msub) {
			mEq := true
			for i := 0; i < n; i++ {
				if ma[i] != mb[i] {
					mEq = false
					break
				}
			}
			if eq != mEq {
				t.Fatalf("Equal = %v, model %v", eq, mEq)
			}
		}
		cl := a.Clone()
		if !cl.Equal(a) {
			t.Fatal("Clone differs from original")
		}
		cl.Not(cl) // aliased in-place complement
		checkModel("not-aliased", cl, mnot)
		cl.CopyFrom(b)
		checkModel("copyfrom", cl, mb)

		// Cyclic scan from every start position (the round-robin encoder).
		for start := 0; start < n; start++ {
			want := -1
			for off := 0; off < n; off++ {
				if ma[(start+off)%n] {
					want = (start + off) % n
					break
				}
			}
			if got := a.NextSetCyclic(start); got != want {
				t.Fatalf("NextSetCyclic(%d) = %d, model %d (n=%d)", start, got, want, n)
			}
		}

		// Word-parallel kernels against the same model. Rank/Select are
		// exact inverses over the set bits; every fused And* kernel must
		// agree with the materialized intersection it avoids building.
		for i := 0; i <= n; i++ {
			want := 0
			for j := 0; j < i; j++ {
				if ma[j] {
					want++
				}
			}
			if got := a.Rank(i); got != want {
				t.Fatalf("Rank(%d) = %d, model %d (n=%d)", i, got, want, n)
			}
		}
		k := 0
		for i, bit := range ma {
			if !bit {
				continue
			}
			if got := a.Select(k); got != i {
				t.Fatalf("Select(%d) = %d, model %d (n=%d)", k, got, i, n)
			}
			if r := a.Rank(i); r != k {
				t.Fatalf("Rank(Select(%d)) = %d", k, r)
			}
			k++
		}
		if got := a.Select(k); got != -1 {
			t.Fatalf("Select(count) = %d, want -1", got)
		}
		if got := AndFirstSet(a, b); got != and.FirstSet() {
			t.Fatalf("AndFirstSet = %d, materialized %d", got, and.FirstSet())
		}
		for start := 0; start < n; start++ {
			if got := AndNextSetCyclic(a, b, start); got != and.NextSetCyclic(start) {
				t.Fatalf("AndNextSetCyclic(%d) = %d, materialized %d",
					start, got, and.NextSetCyclic(start))
			}
		}

		// Batched reduction: a third vector from the payload, reduced with
		// AndInto both into a fresh destination and aliased over a source.
		c := New(n)
		mc := make([]bool, n)
		for i := 0; i < n; i++ {
			if bitAt(data, 2, i) {
				c.Set(i)
				mc[i] = true
			}
		}
		m3 := make([]bool, n)
		for i := 0; i < n; i++ {
			m3[i] = ma[i] && mb[i] && mc[i]
		}
		red := New(n)
		red.AndInto(a, b, c)
		checkModel("andinto", red, m3)
		aliased := a.Clone()
		aliased.AndInto(aliased, b, c)
		checkModel("andinto-aliased", aliased, m3)
		single := New(n)
		single.AndInto(a)
		checkModel("andinto-single", single, ma)

		// Fused I/O-generator update: acc |= c and rem &^= c in one pass.
		acc, rem := a.Clone(), b.Clone()
		OrAndNot(acc, rem, c)
		macc, mrem := make([]bool, n), make([]bool, n)
		for i := 0; i < n; i++ {
			macc[i] = ma[i] || mc[i]
			mrem[i] = mb[i] && !mc[i]
		}
		checkModel("orandnot-acc", acc, macc)
		checkModel("orandnot-rem", rem, mrem)

		// Arena batch: vectors carved from one backing array must behave
		// like independently allocated ones — no cross-slot interference.
		batch := NewBatch(n, 3)
		batch[0].CopyFrom(a)
		batch[1].CopyFrom(b)
		batch[2].Not(batch[2])
		checkModel("batch0", batch[0], ma)
		checkModel("batch1", batch[1], mb)
		if batch[2].Count() != n {
			t.Fatalf("batch slot complement has %d bits, want %d", batch[2].Count(), n)
		}
		batch[2].Reset()
		checkModel("batch0-after-neighbor-reset", batch[0], ma)

		// Mutation round trip: flipping a bit twice restores the vector.
		if n > 0 {
			i := int(sel) % n
			before := a.Get(i)
			a.Set(i)
			if !a.Get(i) {
				t.Fatal("Set did not set")
			}
			a.Clear(i)
			if a.Get(i) {
				t.Fatal("Clear did not clear")
			}
			if before {
				a.Set(i)
			}
			checkModel("a-after-flip", a, ma)
		}
	})
}
