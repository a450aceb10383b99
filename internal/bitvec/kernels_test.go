package bitvec

import "testing"

func TestRankSelect(t *testing.T) {
	v := FromIDs(130, 0, 63, 64, 65, 127, 129)
	if got := v.Rank(0); got != 0 {
		t.Errorf("Rank(0) = %d", got)
	}
	if got := v.Rank(64); got != 2 {
		t.Errorf("Rank(64) = %d, want 2", got)
	}
	if got := v.Rank(130); got != v.Count() {
		t.Errorf("Rank(n) = %d, want Count %d", got, v.Count())
	}
	want := []int{0, 63, 64, 65, 127, 129}
	for k, pos := range want {
		if got := v.Select(k); got != pos {
			t.Errorf("Select(%d) = %d, want %d", k, got, pos)
		}
	}
	if got := v.Select(len(want)); got != -1 {
		t.Errorf("Select past count = %d, want -1", got)
	}
	if got := New(64).Select(0); got != -1 {
		t.Errorf("Select on empty = %d, want -1", got)
	}
}

func TestRankSelectPanics(t *testing.T) {
	v := New(64)
	for name, fn := range map[string]func(){
		"rank-negative":   func() { v.Rank(-1) },
		"rank-past-width": func() { v.Rank(65) },
		"select-negative": func() { v.Select(-1) },
		"andinto-empty":   func() { v.AndInto() },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestFusedKernelsMatchMaterialized(t *testing.T) {
	a := FromIDs(130, 1, 5, 64, 100, 128)
	b := FromIDs(130, 5, 64, 99, 128, 129)
	and := New(130)
	and.And(a, b)
	if got := AndFirstSet(a, b); got != and.FirstSet() {
		t.Errorf("AndFirstSet = %d, want %d", got, and.FirstSet())
	}
	if got := AndNextSetCyclic(a, b, 100); got != and.NextSetCyclic(100) {
		t.Errorf("AndNextSetCyclic(100) = %d, want %d", got, and.NextSetCyclic(100))
	}
	empty := New(130)
	if AndFirstSet(a, empty) != -1 {
		t.Error("fused kernels found bits in an empty intersection")
	}
	if got := AndNextSetCyclic(a, empty, 7); got != -1 {
		t.Errorf("AndNextSetCyclic on empty = %d, want -1", got)
	}
}

func TestNewBatchGeometry(t *testing.T) {
	batch := NewBatch(130, 4)
	if len(batch) != 4 {
		t.Fatalf("batch has %d slots, want 4", len(batch))
	}
	for i, v := range batch {
		if v.Len() != 130 {
			t.Errorf("slot %d width %d, want 130", i, v.Len())
		}
		if v.NumWords() != 3 {
			t.Errorf("slot %d has %d words, want 3", i, v.NumWords())
		}
	}
	// Writes to one slot never leak into a neighbor.
	batch[1].Not(batch[1])
	if !batch[0].None() || !batch[2].None() {
		t.Error("complementing slot 1 disturbed a neighbor")
	}
	if batch[1].Count() != 130 {
		t.Errorf("slot 1 count %d, want 130", batch[1].Count())
	}
	if got := len(NewBatch(64, 0)); got != 0 {
		t.Errorf("empty batch has %d slots", got)
	}
}
