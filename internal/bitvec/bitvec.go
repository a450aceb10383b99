// Package bitvec implements fixed-width bit vectors used throughout Thanos
// to encode relational tables as sets of resource ids (§5.2 of the paper:
// "the vector is indexed by resource ids, and a value of 1 for index i
// indicates the existence of resource with id i").
//
// The zero value of Vector is not usable; construct vectors with New or
// FromIDs. All binary operations require operands of equal width and panic
// otherwise, mirroring the hardware where bus widths are fixed at design
// time.
package bitvec

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Vector is a fixed-width bit vector. Bit i set means resource id i is
// present in the encoded table.
type Vector struct {
	lease // thanosdebug builds only: see debug_on.go
	n     int
	words []uint64
}

// New returns a zeroed vector of width n bits. It panics if n < 0.
func New(n int) *Vector {
	if n < 0 {
		panic("bitvec: negative width")
	}
	return &Vector{n: n, words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// FromIDs returns a vector of width n with exactly the given ids set.
// It panics if any id is out of [0, n).
func FromIDs(n int, ids ...int) *Vector {
	v := New(n)
	for _, id := range ids {
		v.Set(id)
	}
	return v
}

// Ones returns a vector of width n with every bit set.
func Ones(n int) *Vector {
	v := New(n)
	for i := range v.words {
		v.words[i] = ^uint64(0)
	}
	v.trim()
	return v
}

// Len returns the width of the vector in bits.
func (v *Vector) Len() int { return v.n }

// Set sets bit i. It panics if i is out of range.
func (v *Vector) Set(i int) {
	v.live()
	v.check(i)
	v.words[i/wordBits] |= 1 << uint(i%wordBits)
}

// Clear clears bit i. It panics if i is out of range.
func (v *Vector) Clear(i int) {
	v.live()
	v.check(i)
	v.words[i/wordBits] &^= 1 << uint(i%wordBits)
}

// Get reports whether bit i is set. It panics if i is out of range.
func (v *Vector) Get(i int) bool {
	v.live()
	v.check(i)
	return v.words[i/wordBits]&(1<<uint(i%wordBits)) != 0
}

// Count returns the number of set bits (table cardinality).
func (v *Vector) Count() int {
	v.live()
	c := 0
	for _, w := range v.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Any reports whether any bit is set (the table is non-empty).
func (v *Vector) Any() bool {
	v.live()
	for _, w := range v.words {
		if w != 0 {
			return true
		}
	}
	return false
}

// None reports whether the vector is all zeros (the table is empty).
func (v *Vector) None() bool { return !v.Any() }

// Reset clears every bit in place.
func (v *Vector) Reset() {
	v.live()
	for i := range v.words {
		v.words[i] = 0
	}
}

// Clone returns a copy of v.
func (v *Vector) Clone() *Vector {
	v.live()
	w := New(v.n)
	copy(w.words, v.words)
	return w
}

// CopyFrom overwrites v with the contents of src. Widths must match.
func (v *Vector) CopyFrom(src *Vector) {
	v.live()
	src.live()
	v.match(src)
	copy(v.words, src.words)
}

// Or sets v = a | b (set union). All three must have equal width; v may
// alias a or b.
func (v *Vector) Or(a, b *Vector) {
	v.live()
	a.live()
	b.live()
	v.match(a)
	v.match(b)
	for i := range v.words {
		v.words[i] = a.words[i] | b.words[i]
	}
}

// And sets v = a & b (set intersection). v may alias a or b.
func (v *Vector) And(a, b *Vector) {
	v.live()
	a.live()
	b.live()
	v.match(a)
	v.match(b)
	for i := range v.words {
		v.words[i] = a.words[i] & b.words[i]
	}
}

// AndNot sets v = a &^ b (set difference). v may alias a or b.
func (v *Vector) AndNot(a, b *Vector) {
	v.live()
	a.live()
	b.live()
	v.match(a)
	v.match(b)
	for i := range v.words {
		v.words[i] = a.words[i] &^ b.words[i]
	}
}

// Not sets v = ^a restricted to the vector width (set complement within the
// resource-id universe). v may alias a.
func (v *Vector) Not(a *Vector) {
	v.live()
	a.live()
	v.match(a)
	for i := range v.words {
		v.words[i] = ^a.words[i]
	}
	v.trim()
}

// Equal reports whether v and o have the same width and contents.
func (v *Vector) Equal(o *Vector) bool {
	v.live()
	o.live()
	if v.n != o.n {
		return false
	}
	for i := range v.words {
		if v.words[i] != o.words[i] {
			return false
		}
	}
	return true
}

// IsSubset reports whether every bit set in v is also set in o.
func (v *Vector) IsSubset(o *Vector) bool {
	v.live()
	o.live()
	v.match(o)
	for i := range v.words {
		if v.words[i]&^o.words[i] != 0 {
			return false
		}
	}
	return true
}

// FirstSet returns the index of the lowest set bit, behaving like the
// hardware priority encoder in §5.2.1. It returns -1 if no bit is set.
func (v *Vector) FirstSet() int {
	v.live()
	for i, w := range v.words {
		if w != 0 {
			return i*wordBits + bits.TrailingZeros64(w)
		}
	}
	return -1
}

// LastSet returns the index of the highest set bit (the "last 1" priority
// encoder used by the max operator). It returns -1 if no bit is set.
func (v *Vector) LastSet() int {
	v.live()
	for i := len(v.words) - 1; i >= 0; i-- {
		if w := v.words[i]; w != 0 {
			return i*wordBits + bits.Len64(w) - 1
		}
	}
	return -1
}

// NextSetCyclic returns the index of the first set bit at or after position
// start, wrapping around to the beginning of the vector, matching the
// rotated-input priority encoder used by the round-robin and random
// operators (§5.2.1: feed {v[start:N-1], v[0:start-1]} to a priority
// encoder). It returns -1 if no bit is set. It panics if start is out of
// range.
func (v *Vector) NextSetCyclic(start int) int {
	v.live()
	v.check(start)
	// Scan [start, n).
	wi := start / wordBits
	w := v.words[wi] >> uint(start%wordBits)
	if w != 0 {
		return start + bits.TrailingZeros64(w)
	}
	for i := wi + 1; i < len(v.words); i++ {
		if v.words[i] != 0 {
			return i*wordBits + bits.TrailingZeros64(v.words[i])
		}
	}
	// Wrap: scan [0, start).
	for i := 0; i <= wi && i < len(v.words); i++ {
		if v.words[i] != 0 {
			idx := i*wordBits + bits.TrailingZeros64(v.words[i])
			if idx < start {
				return idx
			}
		}
	}
	return -1
}

// IDs returns the indices of all set bits in increasing order. The result
// is freshly allocated.
func (v *Vector) IDs() []int {
	v.live()
	ids := make([]int, 0, v.Count())
	for i, w := range v.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			ids = append(ids, i*wordBits+b)
			w &^= 1 << uint(b)
		}
	}
	return ids
}

// String renders the vector as {id0, id1, ...} for debugging.
func (v *Vector) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, id := range v.IDs() {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d", id)
	}
	b.WriteByte('}')
	return b.String()
}

func (v *Vector) check(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, v.n))
	}
}

func (v *Vector) match(o *Vector) {
	if v.n != o.n {
		panic(fmt.Sprintf("bitvec: width mismatch %d != %d", v.n, o.n))
	}
}

// trim clears bits beyond the logical width in the final word so that
// Count, Any and word-wise comparisons stay exact.
func (v *Vector) trim() {
	if r := v.n % wordBits; r != 0 && len(v.words) > 0 {
		v.words[len(v.words)-1] &= (1 << uint(r)) - 1
	}
}
