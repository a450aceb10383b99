package hw

import (
	"testing"

	"repro/internal/bitvec"
)

func TestClock(t *testing.T) {
	var c Clock
	if c.Cycles() != 0 {
		t.Fatal("zero-value Clock should read 0")
	}
	c.Tick(2)
	c.Tick(1)
	if c.Cycles() != 3 {
		t.Fatalf("Cycles = %d, want 3", c.Cycles())
	}
	c.Reset()
	if c.Cycles() != 0 {
		t.Fatal("Reset did not zero the clock")
	}
}

func TestLFSRZeroSeedCoerced(t *testing.T) {
	l := NewLFSR(0)
	if l.Next() == 0 {
		t.Fatal("LFSR with coerced seed should never emit 0 immediately")
	}
}

func TestLFSRMaximalLength(t *testing.T) {
	l := NewLFSR(1)
	seen := make(map[uint16]bool)
	for i := 0; i < 65535; i++ {
		s := l.Next()
		if s == 0 {
			t.Fatal("LFSR entered all-zero fixed point")
		}
		if seen[s] {
			t.Fatalf("state %#x repeated at step %d: period < 65535", s, i)
		}
		seen[s] = true
	}
	if len(seen) != 65535 {
		t.Fatalf("period = %d, want 65535 (maximal)", len(seen))
	}
}

func TestLFSRNextBelow(t *testing.T) {
	l := NewLFSR(7)
	counts := make([]int, 8)
	for i := 0; i < 8000; i++ {
		r := l.NextBelow(8)
		if r < 0 || r >= 8 {
			t.Fatalf("NextBelow(8) = %d out of range", r)
		}
		counts[r]++
	}
	// Every bucket should be hit a reasonable number of times.
	for i, c := range counts {
		if c < 500 {
			t.Errorf("bucket %d hit only %d/8000 times: badly skewed", i, c)
		}
	}
}

// TestLFSRNextBelowGolden pins the index sequence: every random unit's
// picks — and through them every seeded simulation result — depend on it.
// The golden values were produced by the original int(l.Next()) % n.
func TestLFSRNextBelowGolden(t *testing.T) {
	golden := []struct {
		n    int
		want []int
	}{
		{1, []int{0, 0, 0, 0, 0, 0, 0, 0}},
		{3, []int{2, 1, 2, 1, 2, 0, 2, 0}},
		{64, []int{48, 56, 28, 14, 39, 19, 9, 4}},
		{1000, []int{968, 984, 492, 246, 623, 843, 809, 860}},
		{1024, []int{624, 312, 156, 78, 551, 787, 393, 708}},
		{65535, []int{57968, 28984, 14492, 7246, 3623, 45843, 60809, 49860}},
		{1 << 20, []int{57968, 28984, 14492, 7246, 3623, 45843, 60809, 49860}},
	}
	for _, g := range golden {
		l := NewLFSR(0xACE1)
		for i, want := range g.want {
			if got := l.NextBelow(g.n); got != want {
				t.Fatalf("seed 0xACE1 n=%d draw %d = %d, want %d", g.n, i, got, want)
			}
		}
		// Over the full period the narrow remainder must equal the wide one.
		a, b := NewLFSR(0xACE1), NewLFSR(0xACE1)
		for i := 0; i < 65535; i++ {
			if got, want := a.NextBelow(g.n), int(b.Next())%g.n; got != want {
				t.Fatalf("n=%d draw %d = %d, want %d", g.n, i, got, want)
			}
		}
	}
}

func TestLFSRNextBelowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NextBelow(0) should panic")
		}
	}()
	NewLFSR(1).NextBelow(0)
}

func TestPriorityEncoders(t *testing.T) {
	v := bitvec.FromIDs(64, 9, 40)
	if got := PriorityEncodeFirst(v); got != 9 {
		t.Errorf("first = %d, want 9", got)
	}
	if got := PriorityEncodeLast(v); got != 40 {
		t.Errorf("last = %d, want 40", got)
	}
	if got := PriorityEncodeRotated(v, 10); got != 40 {
		t.Errorf("rotated(10) = %d, want 40", got)
	}
	if got := PriorityEncodeRotated(v, 41); got != 9 {
		t.Errorf("rotated(41) = %d, want 9 (wrap)", got)
	}
	empty := bitvec.New(64)
	if got := PriorityEncodeFirst(empty); got != -1 {
		t.Errorf("first on empty = %d, want -1", got)
	}
}
