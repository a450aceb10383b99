//go:build !thanosdebug

package bitvec

// Outside thanosdebug builds (debug_on.go) the lease machinery is empty and
// compiles to nothing: the hooks cost the shipping kernels no instruction,
// and a Lessor hands out the owner's vectors themselves. The hooks sit in the
// method bodies rather than in check and match, which every method already
// calls, because those two are within two units of the inliner's budget and
// an inlined empty call still costs two.
type lease struct{}

func (v *Vector) live() {}

type Lessor struct{}

func (l *Lessor) Lease(vs []*Vector, also *uint64) []*Vector { return vs }

func (l *Lessor) Expire() {}
