// Word-parallel kernels. Every function here processes 64 table positions
// per step with math/bits intrinsics, mirroring how the hardware evaluates
// an entire bit-vector bus in one cycle (§5.2.1): popcount trees for
// Rank/Select, trailing-zero priority encoders for the *FirstSet family,
// and fused AND inputs so select paths never materialize an intermediate
// vector.

package bitvec

import "math/bits"

// Rank returns the number of set bits in positions [0, i). Rank(Len())
// equals Count(). It panics if i is outside [0, Len()].
func (v *Vector) Rank(i int) int {
	v.live()
	if i < 0 || i > v.n {
		panic("bitvec: rank index out of range")
	}
	wi, bi := i/wordBits, i%wordBits
	c := 0
	for j := 0; j < wi; j++ {
		c += bits.OnesCount64(v.words[j])
	}
	if bi != 0 {
		c += bits.OnesCount64(v.words[wi] & (1<<uint(bi) - 1))
	}
	return c
}

// Select returns the position of the k-th set bit (0-based), the inverse of
// Rank: Rank(Select(k)) == k for every k < Count(). It returns -1 if fewer
// than k+1 bits are set, and panics if k < 0.
func (v *Vector) Select(k int) int {
	v.live()
	if k < 0 {
		panic("bitvec: negative select rank")
	}
	for i, w := range v.words {
		c := bits.OnesCount64(w)
		if k < c {
			return i*wordBits + selectWord(w, k)
		}
		k -= c
	}
	return -1
}

// selectWord returns the position of the k-th set bit of w (k < popcount),
// narrowing the candidate span by popcount halving — six branch-light steps
// instead of a per-bit scan.
func selectWord(w uint64, k int) int {
	pos := 0
	for span := uint(32); span > 0; span >>= 1 {
		c := bits.OnesCount64(w & (1<<span - 1))
		if k >= c {
			k -= c
			w >>= span
			pos += int(span)
		}
	}
	return pos
}

// AndFirstSet returns FirstSet(a&b) without materializing the
// intersection: the fused mask-then-priority-encode micro-op of the UFPU
// select path. It returns -1 if the intersection is empty.
func AndFirstSet(a, b *Vector) int {
	a.live()
	b.live()
	a.match(b)
	for i, w := range a.words {
		if m := w & b.words[i]; m != 0 {
			return i*wordBits + bits.TrailingZeros64(m)
		}
	}
	return -1
}

// AndNextSetCyclic returns NextSetCyclic(a&b, start) without materializing
// the intersection: the fused rotated priority encode used by the
// round-robin and random select operators. It returns -1 if the
// intersection is empty and panics if start is out of range.
func AndNextSetCyclic(a, b *Vector, start int) int {
	a.live()
	b.live()
	a.match(b)
	a.check(start)
	wi := start / wordBits
	if m := (a.words[wi] & b.words[wi]) >> uint(start%wordBits); m != 0 {
		return start + bits.TrailingZeros64(m)
	}
	for i := wi + 1; i < len(a.words); i++ {
		if m := a.words[i] & b.words[i]; m != 0 {
			return i*wordBits + bits.TrailingZeros64(m)
		}
	}
	for i := 0; i <= wi; i++ {
		if m := a.words[i] & b.words[i]; m != 0 {
			if idx := i*wordBits + bits.TrailingZeros64(m); idx < start {
				return idx
			}
		}
	}
	return -1
}

// AndInto sets v to the intersection of every source vector in one pass
// over the words — the batched chain-evaluation reduction. It panics if
// srcs is empty; v may alias any source.
func (v *Vector) AndInto(srcs ...*Vector) {
	if len(srcs) == 0 {
		panic("bitvec: AndInto with no sources")
	}
	v.live()
	for _, s := range srcs {
		s.live()
		v.match(s)
	}
	first := srcs[0]
	rest := srcs[1:]
	for i := range v.words {
		w := first.words[i]
		for _, s := range rest {
			w &= s.words[i]
		}
		v.words[i] = w
	}
}

// OrAndNot performs the K-UFPU I/O-generator update for one unit's output
// (Equation 1): acc |= src and rem &^= src, reading src once. All three
// must have equal width.
func OrAndNot(acc, rem, src *Vector) {
	acc.live()
	rem.live()
	src.live()
	acc.match(src)
	rem.match(src)
	for i, w := range src.words {
		acc.words[i] |= w
		rem.words[i] &^= w
	}
}

// NumWords returns the number of 64-bit words backing the vector.
func (v *Vector) NumWords() int { return len(v.words) }

// Word returns the i-th backing word (bits [64i, 64i+64)). Hot loops that
// combine membership tests with other per-id work iterate words directly:
//
//	for wi := 0; wi < a.NumWords(); wi++ {
//		for m := a.Word(wi) & b.Word(wi); m != 0; m &= m - 1 {
//			id := wi*64 + bits.TrailingZeros64(m)
//			...
//		}
//	}
func (v *Vector) Word(i int) uint64 {
	v.live()
	return v.words[i]
}

// wordStride is the word count every arena slot is rounded up to: 8 words
// = 64 bytes = one cache line, so vectors in a batch never share a line.
const wordStride = 8

// NewBatch allocates count vectors of width n from a single contiguous
// backing array, each slot rounded up to a cache-line multiple. Snapshot
// and pipeline state built from a batch is traversed in allocation order,
// so consecutive vectors prefetch each other.
func NewBatch(n, count int) []*Vector {
	if n < 0 || count < 0 {
		panic("bitvec: negative batch size")
	}
	per := (n + wordBits - 1) / wordBits
	stride := (per + wordStride - 1) / wordStride * wordStride
	backing := make([]uint64, stride*count)
	headers := make([]Vector, count)
	out := make([]*Vector, count)
	for i := range headers {
		headers[i] = Vector{n: n, words: backing[i*stride : i*stride+per : i*stride+stride]}
		out[i] = &headers[i]
	}
	return out
}
