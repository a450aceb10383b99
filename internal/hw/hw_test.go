package hw

import (
	"fmt"
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
	draws := make([]int32, 8000)
	l.DrawBelow(NewRange(8), draws)
	for _, r := range draws {
		if r < 0 || r >= 8 {
			t.Fatalf("DrawBelow(8) = %d out of range", r)
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
// The golden values were produced by the original int(l.Next()) % n, and
// the precomputed reduction (mask, reciprocal or pass-through) must equal
// that remainder on every one of the register's 65 535 states.
func TestLFSRNextBelowGolden(t *testing.T) {
	golden := map[int][]int{
		1:       {0, 0, 0, 0, 0, 0, 0, 0},
		3:       {2, 1, 2, 1, 2, 0, 2, 0},
		64:      {48, 56, 28, 14, 39, 19, 9, 4},
		1000:    {968, 984, 492, 246, 623, 843, 809, 860},
		1024:    {624, 312, 156, 78, 551, 787, 393, 708},
		65535:   {57968, 28984, 14492, 7246, 3623, 45843, 60809, 49860},
		1 << 20: {57968, 28984, 14492, 7246, 3623, 45843, 60809, 49860},
	}
	draws := make([]int32, 65535)
	for _, n := range []int{1, 2, 3, 7, 64, 100, 1000, 1024, 4096, 65535, 65536, 100000, 1 << 20} {
		rng := NewRange(n)
		a, b := NewLFSR(0xACE1), NewLFSR(0xACE1)
		a.DrawBelow(rng, draws)
		for i, want := range golden[n] {
			if got := int(draws[i]); got != want {
				t.Fatalf("seed 0xACE1 n=%d draw %d = %d, want %d", n, i, got, want)
			}
		}
		for i, got := range draws {
			if want := int(b.Next()) % n; int(got) != want {
				t.Fatalf("n=%d draw %d = %d, want %d", n, i, got, want)
			}
		}
		if a != b {
			t.Fatalf("n=%d: register at %#x after the column, %#x after as many steps", n, a.state, b.state)
		}
	}
}

// TestLFSRNextGolden pins the register's own sequence against the textbook
// branching form of the Galois step.
func TestLFSRNextGolden(t *testing.T) {
	l, ref := NewLFSR(0xACE1), uint16(0xACE1)
	for i := 0; i < 65535; i++ {
		lsb := ref & 1
		ref >>= 1
		if lsb != 0 {
			ref ^= 0xB400
		}
		if got := l.Next(); got != ref {
			t.Fatalf("step %d: state %#x, want %#x", i, got, ref)
		}
	}
}

func TestNewRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRange(0) should panic")
		}
	}()
	NewRange(0)
}

func TestPriorityEncodeRotatedAnd(t *testing.T) {
	v, mask := bitvec.FromIDs(64, 9, 40, 50), bitvec.FromIDs(64, 9, 40, 63)
	for start, want := range map[int]int{0: 9, 9: 9, 10: 40, 41: 9, 63: 9} {
		if got := PriorityEncodeRotatedAnd(v, mask, start); got != want {
			t.Errorf("rotated(%d) = %d, want %d", start, got, want)
		}
	}
	if got := PriorityEncodeRotatedAnd(v, bitvec.New(64), 3); got != -1 {
		t.Errorf("empty intersection = %d, want -1", got)
	}
}

// TestLFSRSkip pins Skip(n) to n calls to Next for every n up to twice the
// period, from several seeds (0 among them, coerced to 1), so the byte-table
// stride, the remainder steps and the reduction past the period wrap are
// each compared against the register stepped one state at a time.
func TestLFSRSkip(t *testing.T) {
	for _, seed := range []uint16{0, 0xACE1, 0xFFFF} {
		t.Run(fmt.Sprintf("seed=%#x", seed), func(t *testing.T) {
			t.Parallel()
			ref := NewLFSR(seed)
			for n := 0; n <= 2*65535; n++ {
				l := NewLFSR(seed)
				l.Skip(n)
				if l != ref {
					t.Fatalf("Skip(%d) state %#x, %d Next calls give %#x", n, l.state, n, ref.state)
				}
				ref.Next()
			}
		})
	}
}
