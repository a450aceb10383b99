package hotpathalloc

import (
	"fmt"

	"fixture/telemetrysafety/tel"
)

// Entry is hot; helper is not annotated but is statically reachable, so its
// allocation is still a finding.
//
//thanos:hotpath
func Entry(n int) int { return helper(n) }

func helper(n int) int {
	return len(make([]byte, n)) // want `make allocates`
}

// grow is a reviewed amortized slow path: traversal stops here.
//
//thanos:coldpath amortized growth, cross-checked by allocs tests
func grow(n int) []byte {
	return make([]byte, n)
}

//thanos:hotpath
func EntryCold(n int) int {
	if n < 0 {
		panic(fmt.Sprintf("negative %d", n)) // failure path: exempt
	}
	return len(grow(n))
}

//thanos:hotpath
func EntryGuard(n int) (int, error) {
	if n == 0 {
		return 0, fmt.Errorf("zero input") // error-constructing guard: exempt
	}
	return n, nil
}

// EntryFailure reaches failHelper only from failure paths: a block ending in
// panic and a guard returning the caller's error. hotpathalloc follows
// neither call, so the helper's make is not a finding here. The
// telemetrysafety fixture has the same shape and follows both: the two
// analyzers' edge sets differ on purpose.
//
//thanos:hotpath
func EntryFailure(s *tel.Sampler, n int, err error) (int, error) {
	if n < 0 {
		failHelper(s, n)
		panic("negative input")
	}
	if err != nil {
		failHelper(s, n)
		return 0, err
	}
	return n, nil
}

func failHelper(s *tel.Sampler, n int) {
	buf := make([]byte, n)
	s.Observe(uint64(len(buf)))
}
