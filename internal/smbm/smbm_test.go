package smbm

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustAdd(t *testing.T, s *SMBM, id int, metrics ...int64) {
	t.Helper()
	if err := s.Add(id, metrics); err != nil {
		t.Fatalf("Add(%d, %v): %v", id, metrics, err)
	}
}

func TestNewPanics(t *testing.T) {
	for _, c := range []struct{ n, m int }{{0, 1}, {-1, 1}, {4, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%d,%d) should panic", c.n, c.m)
				}
			}()
			New(c.n, c.m)
		}()
	}
}

func TestAddAndLookup(t *testing.T) {
	s := New(8, 2)
	mustAdd(t, s, 3, 10, 20)
	mustAdd(t, s, 1, 30, 5)
	mustAdd(t, s, 5, 10, 50)

	if s.Size() != 3 {
		t.Fatalf("Size = %d, want 3", s.Size())
	}
	if !s.Contains(1) || !s.Contains(3) || !s.Contains(5) || s.Contains(0) {
		t.Fatal("Contains wrong")
	}
	vals := make([]int64, 2)
	if ok := s.MetricsInto(3, vals); !ok || vals[0] != 10 || vals[1] != 20 {
		t.Fatalf("MetricsInto(3) = %v, %v", vals, ok)
	}
	if v, ok := s.Value(1, 1); !ok || v != 5 {
		t.Fatalf("Value(1,1) = %d, %v", v, ok)
	}
	if _, ok := s.Value(7, 0); ok {
		t.Fatal("Value on absent id should report !ok")
	}
	if s.MetricsInto(7, vals) || vals[0] != 10 || vals[1] != 20 {
		t.Fatalf("MetricsInto on absent id should report false and leave dst alone, got %v", vals)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestSortedDimensionsAndFIFOTieBreak(t *testing.T) {
	s := New(8, 1)
	// Equal values: 2 enqueued before 6, so 2 must appear first (FIFO).
	mustAdd(t, s, 4, 9)
	mustAdd(t, s, 2, 7)
	mustAdd(t, s, 6, 7)
	mustAdd(t, s, 0, 1)

	d := s.Dim(0)
	wantIDs := []int{0, 2, 6, 4}
	wantVals := []int64{1, 7, 7, 9}
	if d.Len() != 4 {
		t.Fatalf("Dim.Len = %d", d.Len())
	}
	for p := 0; p < d.Len(); p++ {
		if d.ID(p) != wantIDs[p] || d.Value(p) != wantVals[p] {
			t.Fatalf("pos %d: (%d,%d), want (%d,%d)", p, d.ID(p), d.Value(p), wantIDs[p], wantVals[p])
		}
	}
	got := d.IDsSorted()
	for i := range wantIDs {
		if got[i] != wantIDs[i] {
			t.Fatalf("IDsSorted = %v, want %v", got, wantIDs)
		}
	}
}

func TestAddErrors(t *testing.T) {
	s := New(2, 1)
	mustAdd(t, s, 0, 1)

	if err := s.Add(0, []int64{2}); !errors.Is(err, ErrDuplicateID) {
		t.Errorf("duplicate: got %v", err)
	}
	if err := s.Add(5, []int64{2}); !errors.Is(err, ErrBadID) {
		t.Errorf("bad id: got %v", err)
	}
	if err := s.Add(1, []int64{2, 3}); !errors.Is(err, ErrMetricsArity) {
		t.Errorf("arity: got %v", err)
	}
	mustAdd(t, s, 1, 2)
	// Table full (capacity 2, and all ids in range are taken anyway).
	if err := s.Add(1, []int64{9}); err == nil {
		t.Error("expected error adding to full table")
	}
}

func TestDelete(t *testing.T) {
	s := New(8, 2)
	mustAdd(t, s, 1, 5, 50)
	mustAdd(t, s, 2, 3, 30)
	mustAdd(t, s, 3, 4, 40)

	if err := s.Delete(2); err != nil {
		t.Fatal(err)
	}
	if s.Size() != 2 || s.Contains(2) {
		t.Fatal("delete did not remove entry")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete(2); !errors.Is(err, ErrNotFound) {
		t.Errorf("double delete: got %v", err)
	}
	d := s.Dim(0)
	if d.Len() != 2 || d.ID(0) != 3 || d.ID(1) != 1 {
		t.Fatalf("dim after delete: ids %v", d.IDsSorted())
	}
}

func TestUpdate(t *testing.T) {
	s := New(8, 1)
	mustAdd(t, s, 1, 10)
	mustAdd(t, s, 2, 20)
	if err := s.Update(1, []int64{30}); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Value(1, 0); v != 30 {
		t.Fatalf("Value after update = %d", v)
	}
	d := s.Dim(0)
	if d.ID(0) != 2 || d.ID(1) != 1 {
		t.Fatalf("order after update: %v", d.IDsSorted())
	}
	if err := s.Update(9, []int64{1}); !errors.Is(err, ErrNotFound) {
		t.Errorf("update absent: got %v", err)
	}
	if err := s.Update(1, []int64{1, 2}); !errors.Is(err, ErrMetricsArity) {
		t.Errorf("update arity: got %v", err)
	}
}

func TestUpsert(t *testing.T) {
	s := New(4, 1)
	if err := s.Upsert(1, []int64{5}); err != nil {
		t.Fatal(err)
	}
	if err := s.Upsert(1, []int64{7}); err != nil {
		t.Fatal(err)
	}
	if v, _ := s.Value(1, 0); v != 7 {
		t.Fatalf("Value after upsert = %d", v)
	}
	if s.Size() != 1 {
		t.Fatalf("Size = %d, want 1", s.Size())
	}
}

func TestWriteCycleAccounting(t *testing.T) {
	s := New(4, 1)
	mustAdd(t, s, 0, 1)
	if s.Cycles() != WriteCycles {
		t.Fatalf("Cycles after add = %d, want %d", s.Cycles(), WriteCycles)
	}
	if err := s.Delete(0); err != nil {
		t.Fatal(err)
	}
	if s.Cycles() != 2*WriteCycles {
		t.Fatalf("Cycles after delete = %d, want %d", s.Cycles(), 2*WriteCycles)
	}
	mustAdd(t, s, 0, 1)
	if err := s.Update(0, []int64{2}); err != nil {
		t.Fatal(err)
	}
	// Update = delete + add = 2 write ops.
	if s.Cycles() != 5*WriteCycles {
		t.Fatalf("Cycles after update = %d, want %d", s.Cycles(), 5*WriteCycles)
	}
	// Failed writes must not consume cycles.
	before := s.Cycles()
	_ = s.Add(0, []int64{9})
	if s.Cycles() != before {
		t.Fatal("failed add consumed cycles")
	}
}

func TestMembers(t *testing.T) {
	s := New(8, 0)
	mustAdd(t, s, 6)
	mustAdd(t, s, 0)
	v := s.MembersView().Clone()
	if v.Len() != 8 || v.Count() != 2 || !v.Get(0) || !v.Get(6) {
		t.Fatalf("Members = %v", v)
	}
}

func TestDimPanicsOutOfRange(t *testing.T) {
	s := New(4, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("Dim(2) should panic")
		}
	}()
	s.Dim(2)
}

func TestZeroMetricsTable(t *testing.T) {
	s := New(4, 0)
	mustAdd(t, s, 2)
	if !s.MetricsInto(2, nil) || s.MetricsInto(1, nil) {
		t.Fatal("MetricsInto on a zero-metric table does not report membership")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyRandomOpsKeepInvariants drives a random add/delete/update
// workload and checks every structural invariant after each operation,
// cross-validating contents against a plain map oracle.
func TestPropertyRandomOpsKeepInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		const n, m = 24, 3
		s := New(n, m)
		oracle := make(map[int][]int64)

		for step := 0; step < 300; step++ {
			id := r.Intn(n)
			switch r.Intn(3) {
			case 0: // add
				vals := []int64{int64(r.Intn(10)), int64(r.Intn(10)), int64(r.Intn(10))}
				err := s.Add(id, vals)
				if _, exists := oracle[id]; exists {
					if !errors.Is(err, ErrDuplicateID) {
						t.Logf("seed %d step %d: add dup err = %v", seed, step, err)
						return false
					}
				} else if err != nil {
					t.Logf("seed %d step %d: add err = %v", seed, step, err)
					return false
				} else {
					oracle[id] = vals
				}
			case 1: // delete
				err := s.Delete(id)
				if _, exists := oracle[id]; exists {
					if err != nil {
						return false
					}
					delete(oracle, id)
				} else if !errors.Is(err, ErrNotFound) {
					return false
				}
			case 2: // update
				vals := []int64{int64(r.Intn(10)), int64(r.Intn(10)), int64(r.Intn(10))}
				err := s.Update(id, vals)
				if _, exists := oracle[id]; exists {
					if err != nil {
						return false
					}
					oracle[id] = vals
				} else if !errors.Is(err, ErrNotFound) {
					return false
				}
			}
			if err := s.CheckInvariants(); err != nil {
				t.Logf("seed %d step %d: %v", seed, step, err)
				return false
			}
		}
		// Final content check against oracle.
		if s.Size() != len(oracle) {
			return false
		}
		for id, want := range oracle {
			got := make([]int64, len(want))
			if !s.MetricsInto(id, got) {
				return false
			}
			for j := range want {
				if got[j] != want[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// TestPropertySortedOrderMatchesOracle checks each dimension's sorted id
// order against a stable sort of the oracle contents.
func TestPropertySortedOrderMatchesOracle(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		const n = 16
		s := New(n, 1)
		type rec struct {
			id  int
			val int64
			seq int
		}
		var recs []rec
		for seq, id := range r.Perm(n) {
			val := int64(r.Intn(5)) // few distinct values → many ties
			if err := s.Add(id, []int64{val}); err != nil {
				return false
			}
			recs = append(recs, rec{id, val, seq})
		}
		// Oracle: stable sort by value preserving insertion (seq) order.
		// recs is already in insertion order, so a stable selection works.
		var want []int
		for {
			best := -1
			for i := range recs {
				if recs[i].seq < 0 {
					continue
				}
				if best < 0 || recs[i].val < recs[best].val {
					best = i
				}
			}
			if best < 0 {
				break
			}
			want = append(want, recs[best].id)
			recs[best].seq = -1
		}
		got := s.Dim(0).IDsSorted()
		for i := range want {
			if got[i] != want[i] {
				t.Logf("seed %d: got %v want %v", seed, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestAddDeleteIsIdentity checks add∘delete leaves the table exactly as it
// was.
func TestAddDeleteIsIdentity(t *testing.T) {
	s := New(8, 2)
	mustAdd(t, s, 1, 5, 6)
	mustAdd(t, s, 3, 2, 9)
	before0 := s.Dim(0).IDsSorted()
	before1 := s.Dim(1).IDsSorted()

	mustAdd(t, s, 2, 3, 7)
	if err := s.Delete(2); err != nil {
		t.Fatal(err)
	}

	after0 := s.Dim(0).IDsSorted()
	after1 := s.Dim(1).IDsSorted()
	for i := range before0 {
		if before0[i] != after0[i] || before1[i] != after1[i] {
			t.Fatalf("add∘delete changed table: %v/%v -> %v/%v", before0, before1, after0, after1)
		}
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAddDelete128x4(b *testing.B) {
	s := New(128, 4)
	for i := 0; i < 127; i++ {
		if err := s.Add(i, []int64{int64(i), int64(i * 3 % 97), int64(i * 7 % 89), int64(i * 11 % 83)}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Add(127, []int64{1, 2, 3, 4}); err != nil {
			b.Fatal(err)
		}
		if err := s.Delete(127); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUpdate512x8(b *testing.B) {
	s := New(512, 8)
	vals := make([]int64, 8)
	for i := 0; i < 512; i++ {
		for j := range vals {
			vals[j] = int64((i*31 + j*17) % 1009)
		}
		if err := s.Add(i, vals); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vals[0] = int64(i % 1000)
		if err := s.Update(i%512, vals); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCopyAndDiff: a copy keeps contents, tie order and version, is
// independent of its source, and Diff tells tables apart by tie order alone.
func TestCopyAndDiff(t *testing.T) {
	s := New(8, 2)
	mustAdd(t, s, 3, 5, 1)
	mustAdd(t, s, 6, 5, 1) // ties 3 in both dimensions, after it
	mustAdd(t, s, 1, 2, 9)
	if err := s.Update(3, []int64{5, 1}); err != nil { // 3 now follows 6
		t.Fatal(err)
	}
	c := s.Copy()
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := c.Diff(s); err != nil {
		t.Fatalf("copy differs: %v", err)
	}
	if c.Version() != s.Version() || c.Cycles() != s.Cycles() {
		t.Errorf("copy version/cycles %d/%d, source %d/%d", c.Version(), c.Cycles(), s.Version(), s.Cycles())
	}
	if got := c.Dim(0).IDsSorted(); got[1] != 6 || got[2] != 3 {
		t.Errorf("copy dimension 0 order %v, want 6 before 3", got)
	}
	// Same rows, other tie order: rewriting 6 with its own values moves it
	// behind 3.
	if err := c.Update(6, []int64{5, 1}); err != nil {
		t.Fatal(err)
	}
	if err := c.Diff(s); err == nil {
		t.Error("Diff misses a tie-order difference")
	}
	if s.Dim(0).ID(1) != 6 {
		t.Error("writing the copy changed its source")
	}
	if err := c.Delete(1); err != nil {
		t.Fatal(err)
	}
	if err := c.Diff(s); err == nil {
		t.Error("Diff misses a missing resource")
	}
	if err := New(8, 0).Diff(New(8, 2)); err == nil {
		t.Error("Diff misses a shape difference")
	}
}
