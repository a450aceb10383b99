package smbm

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// eagerAdd is Add as the hardware performs it (§5.1.2): a binary search for
// the insertion point and a suffix shift of each dimension's value and id
// columns, so the row lands at once after every equal value and the table
// keeps no tail. It is the reference the deferred Add is held against; it
// must only be used on a table with no tail.
func eagerAdd(s *SMBM, id int, metrics []int64) error {
	switch {
	case id < 0 || id >= s.n:
		return ErrBadID
	case len(metrics) != s.m:
		return ErrMetricsArity
	case s.size >= s.n:
		return ErrFull
	case s.members.Get(id):
		return ErrDuplicateID
	}
	for j := 0; j < s.m; j++ {
		v := metrics[j]
		col := s.vals[j]
		p := upperBound(col, v)
		col = col[: s.size+1 : cap(col)]
		copy(col[p+1:], col[p:])
		col[p] = v
		s.vals[j] = col

		idsj := s.dimIDs[j][: s.size+1 : cap(s.dimIDs[j])]
		copy(idsj[p+1:], idsj[p:])
		idsj[p] = int32(id)
		s.dimIDs[j] = idsj
		s.stale[j] = min(s.stale[j], p)
		s.valByID[id*s.m+j] = v
	}
	s.size++
	s.sorted = s.size
	s.members.Set(id)
	s.version++
	s.clock.Tick(WriteCycles)
	return nil
}

// tailLen is the number of rows added since the last settle.
func tailLen(s *SMBM) int { return s.size - s.sorted }

// sameAsEager checks a deferred table against its eager twin: first the
// reads that never settle, then that they leave the tail in place, then
// (settling) every dimension's order, ties included, and every position
// pointer.
func sameAsEager(t *testing.T, lazy, eager *SMBM) {
	t.Helper()
	if tailLen(eager) != 0 {
		t.Fatalf("the eager reference has a %d-entry tail", tailLen(eager))
	}
	tail := tailLen(lazy)
	if lazy.Size() != eager.Size() || lazy.Version() != eager.Version() || lazy.Cycles() != eager.Cycles() {
		t.Fatalf("size/version/cycles %d/%d/%d, eager %d/%d/%d",
			lazy.Size(), lazy.Version(), lazy.Cycles(), eager.Size(), eager.Version(), eager.Cycles())
	}
	got, want := make([]int64, lazy.m), make([]int64, eager.m)
	for id := 0; id < lazy.n; id++ {
		okL, okE := lazy.MetricsInto(id, got), eager.MetricsInto(id, want)
		if okL != okE || lazy.Contains(id) != okE || lazy.MembersView().Get(id) != okE || (okL && !slices.Equal(got, want)) {
			t.Fatalf("id %d: present %v with %v, eager present %v with %v", id, okL, got, okE, want)
		}
		for j := 0; j < lazy.m && okL; j++ {
			if v, ok := lazy.Value(id, j); !ok || v != want[j] {
				t.Fatalf("Value(%d,%d) = %d,%v, eager %d", id, j, v, ok, want[j])
			}
		}
	}
	if tailLen(lazy) != tail {
		t.Fatalf("a read that must not settle did: tail %d -> %d", tail, tailLen(lazy))
	}
	if err := lazy.checkLazy(); err != nil {
		t.Fatalf("unsettled table: %v", err)
	}
	if err := lazy.Diff(eager); err != nil {
		t.Fatalf("deferred vs eager: %v", err)
	}
	if tailLen(lazy) != 0 {
		t.Fatalf("Diff left a %d-entry tail", tailLen(lazy))
	}
	for j := 0; j < lazy.m; j++ {
		for id := 0; id < lazy.n; id++ {
			if p, q := lazy.PosInDim(id, j), eager.PosInDim(id, j); p != q {
				t.Fatalf("PosInDim(%d,%d) = %d, eager %d", id, j, p, q)
			}
		}
	}
	for _, s := range []*SMBM{lazy, eager} {
		if err := s.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

// drawRow draws a 3-metric row: a tiny domain (ties everywhere), a signed
// one that crosses zero, and the full int64 range with its extremes.
func drawRow(r *rand.Rand) []int64 {
	wide := int64(r.Uint64())
	switch r.Intn(8) {
	case 0:
		wide = math.MinInt64
	case 1:
		wide = math.MaxInt64
	}
	return []int64{int64(r.Intn(4)), r.Int63n(1<<20) - 1<<19, wide}
}

// TestTailBurstsMatchEagerAdds adds bursts of k rows into tables already
// holding a settled prefix — empty, half full and full but for the burst —
// and holds the deferred table against the eager reference.
func TestTailBurstsMatchEagerAdds(t *testing.T) {
	const n, m = 2048, 3
	for _, k := range []int{1, 2, 17, 1024} {
		for _, fill := range []struct {
			name string
			rows int
		}{{"empty", 0}, {"half", n / 2}, {"full-k", n - k}} {
			t.Run(fmt.Sprintf("k%d/%s", k, fill.name), func(t *testing.T) {
				r := rand.New(rand.NewSource(int64(k*7 + fill.rows)))
				lazy, eager := New(n, m), New(n, m)
				ids := r.Perm(n)
				for _, id := range ids[:fill.rows] {
					row := drawRow(r)
					if err := lazy.Add(id, row); err != nil {
						t.Fatal(err)
					}
					if err := eagerAdd(eager, id, row); err != nil {
						t.Fatal(err)
					}
				}
				lazy.Dim(0) // settle the prefix
				for _, id := range ids[fill.rows : fill.rows+k] {
					row := drawRow(r)
					if err := lazy.Add(id, row); err != nil {
						t.Fatal(err)
					}
					if err := eagerAdd(eager, id, row); err != nil {
						t.Fatal(err)
					}
				}
				if tailLen(lazy) != k {
					t.Fatalf("tail holds %d rows after a %d-row burst", tailLen(lazy), k)
				}
				sameAsEager(t, lazy, eager)
			})
		}
	}
}

// TestTailTiesStraddlePrefix: equal values in the prefix stay ahead of
// equal values from the tail, and equal tail values keep their add order.
func TestTailTiesStraddlePrefix(t *testing.T) {
	lazy, eager := New(16, 1), New(16, 1)
	add := func(id int, v int64) {
		t.Helper()
		if err := lazy.Add(id, []int64{v}); err != nil {
			t.Fatal(err)
		}
		if err := eagerAdd(eager, id, []int64{v}); err != nil {
			t.Fatal(err)
		}
	}
	for id, v := range []int64{5, 3, 5, 7} {
		add(id, v)
	}
	lazy.Dim(0)
	for i, v := range []int64{5, 5, 3, 7, 5} {
		add(8+i, v)
	}
	want := []int{1, 10, 0, 2, 8, 9, 12, 3, 11}
	if got := lazy.Dim(0).IDsSorted(); !slices.Equal(got, want) {
		t.Fatalf("order %v, want %v", got, want)
	}
	sameAsEager(t, lazy, eager)
}

// TestTailExtremeValues: the radix sort's sign flip orders negative values,
// math.MinInt64 and math.MaxInt64 correctly, whether a burst differs in
// every byte, in the sign byte only, or in none.
func TestTailExtremeValues(t *testing.T) {
	for _, tc := range []struct {
		name          string
		prefix, burst []int64
	}{
		{"mixed", []int64{0, -1, math.MaxInt64}, []int64{math.MaxInt64, math.MinInt64, -1, 1, 0, math.MinInt64 + 1, math.MaxInt64 - 1, -256, 256, 1 << 32, -(1 << 32), math.MinInt64, math.MaxInt64}},
		{"sign-byte-only", []int64{math.MinInt64 + 5}, []int64{5, math.MinInt64 + 5, 5, math.MinInt64 + 5}},
		{"all-equal", []int64{-9, -9}, []int64{-9, -9, -9}},
		{"low-byte-only", nil, []int64{-2, -1, -3, -1, -2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			n := len(tc.prefix) + len(tc.burst)
			lazy, eager := New(n, 1), New(n, 1)
			for id, v := range append(slices.Clone(tc.prefix), tc.burst...) {
				if id == len(tc.prefix) {
					lazy.Dim(0)
				}
				if err := lazy.Add(id, []int64{v}); err != nil {
					t.Fatal(err)
				}
				if err := eagerAdd(eager, id, []int64{v}); err != nil {
					t.Fatal(err)
				}
			}
			d := lazy.Dim(0)
			for p := 1; p < d.Len(); p++ {
				if d.Value(p-1) > d.Value(p) {
					t.Fatalf("not sorted at %d: %d > %d", p, d.Value(p-1), d.Value(p))
				}
			}
			sameAsEager(t, lazy, eager)
		})
	}
}

// TestTailDeleteUpdateReAdd writes ids that are still in the tail: Delete
// and Update settle first, then act on the merged row.
func TestTailDeleteUpdateReAdd(t *testing.T) {
	const n, m = 32, 3
	r := rand.New(rand.NewSource(5))
	lazy, eager := New(n, m), New(n, m)
	add := func(id int) {
		t.Helper()
		row := drawRow(r)
		if err := lazy.Add(id, row); err != nil {
			t.Fatal(err)
		}
		if err := eagerAdd(eager, id, row); err != nil {
			t.Fatal(err)
		}
	}
	for id := 0; id < 10; id++ {
		add(id)
	}
	lazy.Dim(0)
	for id := 10; id < 15; id++ {
		add(id)
	}
	for _, s := range []*SMBM{lazy, eager} {
		if err := s.Delete(12); err != nil {
			t.Fatal(err)
		}
	}
	sameAsEager(t, lazy, eager)

	for id := 15; id < 20; id++ {
		add(id)
	}
	row := drawRow(r)
	for _, s := range []*SMBM{lazy, eager} {
		if err := s.Update(17, row); err != nil {
			t.Fatal(err)
		}
	}
	sameAsEager(t, lazy, eager)

	// A tail id deleted and added again before any read.
	add(20)
	for _, s := range []*SMBM{lazy, eager} {
		if err := s.Delete(20); err != nil {
			t.Fatal(err)
		}
	}
	add(20)
	sameAsEager(t, lazy, eager)
}

// TestTailWriteErrors: Add rejects an id that is only in the tail, and a
// table filled through the tail, without settling either.
func TestTailWriteErrors(t *testing.T) {
	s := New(4, 2)
	mustAdd(t, s, 0, 1, 2)
	mustAdd(t, s, 1, 3, 4)
	if err := s.Add(1, []int64{5, 6}); !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("duplicate tail id: got %v", err)
	}
	mustAdd(t, s, 2, 1, 1)
	mustAdd(t, s, 3, 0, 0)
	if err := s.Add(0, []int64{5, 6}); !errors.Is(err, ErrFull) {
		t.Fatalf("table full through its tail: got %v", err)
	}
	if tailLen(s) != 4 {
		t.Fatalf("a rejected Add settled: tail %d", tailLen(s))
	}
	if err := s.Upsert(2, []int64{9, 9}); err != nil { // Update settles
		t.Fatal(err)
	}
	if got, want := s.Dim(0).IDsSorted(), []int{3, 0, 1, 2}; !slices.Equal(got, want) {
		t.Fatalf("order %v, want %v", got, want)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestTailCopyAndDiff: Copy settles its source and copies no tail, and Diff
// settles both sides, so it still tells tables apart by tie order alone.
func TestTailCopyAndDiff(t *testing.T) {
	lazy, eager, swapped := New(8, 1), New(8, 1), New(8, 1)
	for _, id := range []int{4, 2, 6} {
		mustAdd(t, lazy, id, 7)
		if err := eagerAdd(eager, id, []int64{7}); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []int{2, 4, 6} {
		if err := eagerAdd(swapped, id, []int64{7}); err != nil {
			t.Fatal(err)
		}
	}
	c := lazy.Copy()
	if tailLen(lazy) != 0 || tailLen(c) != 0 {
		t.Fatalf("Copy left tails %d and %d", tailLen(lazy), tailLen(c))
	}
	sameAsEager(t, c, eager)

	mustAdd(t, lazy, 1, 7)
	mustAdd(t, c, 1, 7)
	for _, s := range []*SMBM{eager, swapped} {
		if err := eagerAdd(s, 1, []int64{7}); err != nil {
			t.Fatal(err)
		}
	}
	if err := eager.Diff(lazy); err != nil { // settles its argument too
		t.Fatal(err)
	}
	if tailLen(lazy) != 0 {
		t.Fatal("Diff did not settle its argument")
	}
	if err := swapped.Diff(c); err == nil {
		t.Fatal("Diff missed a tie-order difference behind a tail")
	}
	sameAsEager(t, c, eager)
}

// TestSettleScratch: a one-row tail settles without the scratch, and a
// longer tail sizes it once; later tails no longer than it allocate
// nothing.
func TestSettleScratch(t *testing.T) {
	s := New(64, 2)
	for id := 0; id < 32; id++ {
		mustAdd(t, s, id, int64(id%5), int64(-id))
	}
	s.Dim(0)
	if cap(s.tailVals) != 32 || cap(s.tailIDs) != 32 {
		t.Fatalf("scratch %d/%d after a 32-row settle, want 32", cap(s.tailVals), cap(s.tailIDs))
	}
	row := []int64{2, 3}
	if got := testing.AllocsPerRun(50, func() {
		for id := 32; id < 48; id++ {
			if err := s.Add(id, row); err != nil {
				t.Fatal(err)
			}
		}
		s.Dim(1)
		for id := 32; id < 48; id++ {
			if err := s.Delete(id); err != nil {
				t.Fatal(err)
			}
		}
	}); got != 0 {
		t.Fatalf("a 16-row burst after a 32-row one allocates %.1f times", got)
	}
	fresh := New(8, 1)
	mustAdd(t, fresh, 3, 1)
	fresh.Dim(0)
	if fresh.tailVals != nil {
		t.Fatal("a one-row settle allocated scratch")
	}
}
