package smbm

import "testing"

// TestWritePathZeroAlloc pins the steady-state probe-processing writes:
// Update and churn-style Add/Delete must not allocate once the table's
// columnar arenas are warm.
func TestWritePathZeroAlloc(t *testing.T) {
	const n, m = 128, 4
	s := New(n, m)
	for id := 0; id < n; id++ {
		if err := s.Add(id, []int64{int64(id % 7), int64(-id), int64(id * 3), 9}); err != nil {
			t.Fatal(err)
		}
	}
	vals := []int64{0, 1, 2, 3}

	i := 0
	if got := testing.AllocsPerRun(100, func() {
		vals[0] = int64(i % 997)
		if err := s.Update(i%n, vals); err != nil {
			t.Fatal(err)
		}
		i++
	}); got != 0 {
		t.Errorf("Update allocates %.1f times per call, want 0", got)
	}

	if got := testing.AllocsPerRun(100, func() {
		if err := s.Delete(i % n); err != nil {
			t.Fatal(err)
		}
		if err := s.Add(i%n, vals); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("Delete+Add churn allocates %.1f times per call, want 0", got)
	}
}
