//go:build thanosdebug

package smbm

// Built with -tags thanosdebug, every mutating SMBM operation re-verifies
// the structure's invariants — strict per-dimension sortedness, the value
// cache, each stale watermark's bound and the id↔metric pointer bijection of
// §5.1.1 below the watermark — and panics on the first violation, naming the
// operation that broke it. The check repairs nothing, so debug runs keep the
// deferred pointer state a shipping build has. It is O(n·m) per write, far
// above the modeled 2-cycle budget, which is exactly why it lives behind a
// build tag rather than in the shipping datapath.
const debugAssertions = true

func (s *SMBM) assertConsistent(op string) {
	if err := s.checkLazy(); err != nil {
		panic("smbm: invariant violated after " + op + ": " + err.Error())
	}
}

// DebugVersion is the address of the version counter, for debug leases that
// must end with the next write (bitvec.Lessor) without calling back here.
func (s *SMBM) DebugVersion() *uint64 { return &s.version }
