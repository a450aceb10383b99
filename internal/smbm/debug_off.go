//go:build !thanosdebug

package smbm

// debugAssertions reports whether the thanosdebug runtime checks are
// compiled in. In normal builds it is constant false, so the assertion
// hooks below compile to nothing.
const debugAssertions = false

func (s *SMBM) assertConsistent(op string) {}

// DebugVersion has nothing to offer outside thanosdebug builds; it exists so
// that callers of bitvec.Lessor compile under both tags.
func (s *SMBM) DebugVersion() *uint64 { return nil }
