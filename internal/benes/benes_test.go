package benes

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	for _, bad := range []int{0, 1, 3, 6, 12, -4} {
		if _, err := New(bad); err == nil {
			t.Errorf("New(%d) should fail", bad)
		}
	}
	for _, good := range []int{2, 4, 8, 16, 64} {
		nw, err := New(good)
		if err != nil {
			t.Errorf("New(%d): %v", good, err)
			continue
		}
		if nw.Size() != good {
			t.Errorf("Size = %d, want %d", nw.Size(), good)
		}
	}
}

func TestStageAndSwitchCounts(t *testing.T) {
	cases := []struct{ n, stages, switches int }{
		{2, 1, 1},
		{4, 3, 6},
		{8, 5, 20},
		{16, 7, 56},
	}
	for _, c := range cases {
		nw, err := New(c.n)
		if err != nil {
			t.Fatal(err)
		}
		if got := nw.NumStages(); got != c.stages {
			t.Errorf("n=%d: NumStages = %d, want %d", c.n, got, c.stages)
		}
		if got := nw.NumSwitches(); got != c.switches {
			t.Errorf("n=%d: NumSwitches = %d, want %d", c.n, got, c.switches)
		}
	}
}

func TestIdentityByDefault(t *testing.T) {
	nw, _ := New(8)
	for in := 0; in < 8; in++ {
		if got := nw.OutputOf(in); got != in {
			t.Errorf("unconfigured OutputOf(%d) = %d", in, got)
		}
	}
}

func TestRouteSimplePermutations(t *testing.T) {
	nw, _ := New(4)
	perms := [][]int{
		{0, 1, 2, 3},
		{3, 2, 1, 0},
		{1, 0, 3, 2},
		{2, 3, 0, 1},
		{1, 2, 3, 0},
	}
	for _, p := range perms {
		if err := nw.Route(p); err != nil {
			t.Fatalf("Route(%v): %v", p, err)
		}
		for in, want := range p {
			if got := nw.OutputOf(in); got != want {
				t.Fatalf("perm %v: OutputOf(%d) = %d, want %d", p, in, got, want)
			}
		}
	}
}

func TestRouteBase2(t *testing.T) {
	nw, _ := New(2)
	if err := nw.Route([]int{1, 0}); err != nil {
		t.Fatal(err)
	}
	if nw.OutputOf(0) != 1 || nw.OutputOf(1) != 0 {
		t.Fatal("cross not realized on n=2")
	}
	if err := nw.Route([]int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if nw.OutputOf(0) != 0 {
		t.Fatal("straight not realized on n=2")
	}
}

func TestRoutePartial(t *testing.T) {
	nw, _ := New(8)
	perm := []int{-1, 5, -1, -1, 0, -1, -1, 2}
	if err := nw.Route(perm); err != nil {
		t.Fatal(err)
	}
	for in, want := range perm {
		if want == -1 {
			continue
		}
		if got := nw.OutputOf(in); got != want {
			t.Errorf("OutputOf(%d) = %d, want %d", in, got, want)
		}
	}
	// The realized mapping must still be a bijection.
	seen := map[int]bool{}
	for _, out := range nw.Mapping() {
		if seen[out] {
			t.Fatal("Mapping is not a bijection")
		}
		seen[out] = true
	}
}

func TestRouteErrors(t *testing.T) {
	nw, _ := New(4)
	if err := nw.Route([]int{0, 1}); err == nil {
		t.Error("short perm should fail")
	}
	if err := nw.Route([]int{0, 0, -1, -1}); err == nil {
		t.Error("duplicate output should fail")
	}
	if err := nw.Route([]int{4, -1, -1, -1}); err == nil {
		t.Error("out-of-range output should fail")
	}
	if err := nw.Route([]int{-2, -1, -1, -1}); err == nil {
		t.Error("negative non-(-1) output should fail")
	}
}

func TestOutputOfPanics(t *testing.T) {
	nw, _ := New(4)
	defer func() {
		if recover() == nil {
			t.Fatal("OutputOf(4) should panic")
		}
	}()
	nw.OutputOf(4)
}

// TestPropertyAnyPermutationRealizable is the core non-blocking property:
// every random permutation must be exactly realized, at several sizes.
func TestPropertyAnyPermutationRealizable(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16, 32, 64} {
		nw, err := New(n)
		if err != nil {
			t.Fatal(err)
		}
		f := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			perm := r.Perm(n)
			if err := nw.Route(perm); err != nil {
				return false
			}
			for in, want := range perm {
				if nw.OutputOf(in) != want {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
	}
}

// TestPropertyPartialMappingsRealizable checks partial permutations with
// random holes.
func TestPropertyPartialMappingsRealizable(t *testing.T) {
	const n = 16
	nw, _ := New(n)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		perm := r.Perm(n)
		req := make([]int, n)
		for i := range req {
			if r.Intn(2) == 0 {
				req[i] = perm[i]
			} else {
				req[i] = -1
			}
		}
		if err := nw.Route(req); err != nil {
			return false
		}
		m := nw.Mapping()
		seen := make([]bool, n)
		for in, out := range m {
			if seen[out] {
				return false
			}
			seen[out] = true
			if req[in] != -1 && out != req[in] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestNextPow2(t *testing.T) {
	cases := map[int]int{0: 2, 1: 2, 2: 2, 3: 4, 4: 4, 5: 8, 8: 8, 9: 16, 16: 16, 17: 32}
	for n, want := range cases {
		if got := NextPow2(n); got != want {
			t.Errorf("NextPow2(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestCrosspointComparison(t *testing.T) {
	// A Benes network uses far fewer 2x2 switches (4 crosspoints each) than
	// a monolithic crossbar has crosspoints, for large n.
	nw, _ := New(64)
	benesXP := nw.NumSwitches() * 4
	monoXP := CrosspointsMonolithic(64, 64)
	if benesXP >= monoXP {
		t.Errorf("Benes crosspoints %d not below monolithic %d at n=64", benesXP, monoXP)
	}
}

func BenchmarkRoute64(b *testing.B) {
	nw, _ := New(64)
	r := rand.New(rand.NewSource(1))
	perm := r.Perm(64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := nw.Route(perm); err != nil {
			b.Fatal(err)
		}
	}
}
