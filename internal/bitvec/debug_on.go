//go:build thanosdebug

package bitvec

import "fmt"

// Built with -tags thanosdebug, an owner of vectors can hand them out as
// leased views (Lessor): second headers over the same words that panic on any
// access once the lease has ended. The owner's own headers are never leased,
// so the owner keeps reading and writing freely.
type lease struct {
	watch [2]*uint64 // the lease lasts while *watch[i] == at[i]; nil: not a view
	at    [2]uint64
}

func (v *Vector) live() {
	for i, w := range v.watch {
		if w != nil && *w != v.at[i] {
			panic("bitvec: access to a view whose lease has ended")
		}
	}
}

// Lessor leases views of one owner's vectors, one generation at a time.
type Lessor struct {
	gen   uint64
	views []*Vector
	snaps [][]uint64 // the views' words as leased
}

// Lease ends the previous generation's leases and returns views of vs that
// last until the next Lease or Expire, or until *also (a version counter the
// vectors depend on) moves, whichever comes first. The headers are fresh on
// every call: that is what tells a held view from its successor.
//
// It allocates by design, in debug builds only: the shipping Lease
// (debug_off.go) returns vs itself.
func (l *Lessor) Lease(vs []*Vector, also *uint64) []*Vector {
	l.Expire()
	l.views, l.snaps = make([]*Vector, len(vs)), make([][]uint64, len(vs))
	for i, v := range vs {
		l.views[i] = &Vector{lease: lease{watch: [2]*uint64{&l.gen, also}, at: [2]uint64{l.gen, *also}}, n: v.n, words: v.words}
		l.snaps[i] = append([]uint64(nil), v.words...)
	}
	return l.views
}

// Expire ends the current generation's leases. It panics if a holder wrote
// through one of them — unless *also moved meanwhile: then the words may
// have changed under the owner's own hand.
func (l *Lessor) Expire() {
	for i, v := range l.views {
		if *v.watch[1] != v.at[1] {
			continue
		}
		for j, w := range l.snaps[i] {
			if v.words[j] != w {
				panic(fmt.Sprintf("bitvec: leased view %d was written through: word %d is %#x, was %#x", i, j, v.words[j], w))
			}
		}
	}
	l.gen++
	l.views, l.snaps = nil, nil
}
