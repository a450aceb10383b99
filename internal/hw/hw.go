// Package hw models the low-level hardware primitives that Thanos's filter
// module is built from: linear-feedback shift registers (the random-number
// source in §5.2.1), the masked rotated priority encoder, and a
// clock-cycle accounting helper used by the cycle-accurate functional models
// of SMBM, UFPU and BFPU.
//
// These are functional models: they compute exactly what the combinational
// logic would compute in one clock cycle, and the surrounding units charge
// the right number of cycles via Clock.
package hw

import "repro/internal/bitvec"

// Clock counts clock cycles consumed by a pipelined hardware block. Because
// every Thanos block is fully pipelined, throughput is one operation per
// cycle and Clock tracks cumulative latency for verification against the
// paper's stated per-block latencies (SMBM write: 2, UFPU: 2, BFPU: 1).
type Clock struct {
	cycles uint64
}

// Tick advances the clock by n cycles.
func (c *Clock) Tick(n uint64) { c.cycles += n }

// Cycles returns the total cycles elapsed.
func (c *Clock) Cycles() uint64 { return c.cycles }

// Reset zeroes the clock.
func (c *Clock) Reset() { c.cycles = 0 }

// LFSR is a Galois linear-feedback shift register, the standard hardware
// random number generator referenced by the paper for the random filter
// operator. The 16-bit polynomial x^16+x^14+x^13+x^11+1 (taps 0xB400) is
// maximal-length: it cycles through all 65535 non-zero states.
type LFSR struct {
	state uint16
}

// NewLFSR returns an LFSR seeded with the given value; a zero seed is
// replaced with 1 because the all-zero state is a fixed point.
func NewLFSR(seed uint16) LFSR {
	if seed == 0 {
		seed = 1
	}
	return LFSR{state: seed}
}

// Next advances the register one step and returns the new state.
func (l *LFSR) Next() uint16 {
	l.state = lfsrStep(l.state)
	return l.state
}

// lfsrStep is one step of the register from state s. The taps are gated by
// the shifted-out bit with a mask, not a branch: that bit is the random
// stream itself, so a branch on it mispredicts every other step.
func lfsrStep(s uint16) uint16 {
	return s>>1 ^ (-(s & 1) & 0xB400)
}

// lfsrPeriod is the register's period: the 65535 non-zero states.
const lfsrPeriod = 65535

// lfsrStep8 is eight Next steps as one lookup: the lowest tap is bit 10, so
// feedback injected in a step cannot reach bit 0 within eight steps and the
// eight bits shifted out are exactly the low byte of the starting state.
// Eight steps from s are therefore s>>8 ^ lfsrStep8[s&0xFF], the entry being
// eight steps from the byte alone (whose own >>8 is zero).
var lfsrStep8 = func() (t [256]uint16) {
	for b := range t {
		l := LFSR{state: uint16(b)}
		for range 8 {
			l.Next()
		}
		t[b] = l.state
	}
	return t
}()

// Skip advances the register n steps, leaving it where n calls to Next
// would: eight steps per table lookup, then the remainder one at a time.
func (l *LFSR) Skip(n int) {
	n %= lfsrPeriod
	s := l.state
	for ; n >= 8; n -= 8 {
		s = s>>8 ^ lfsrStep8[s&0xFF]
	}
	for ; n > 0; n-- {
		s = lfsrStep(s)
	}
	l.state = s
}

// Range is the reduction of a 16-bit LFSR state into [0, n), precomputed
// because a random unit's N is wired at configuration time: per packet it
// costs a mask (n a power of two, or past the state's range, which leaves
// the state as it is) or two multiplies by a reciprocal that is exact for
// every 16-bit state — never a divide.
type Range struct {
	n, recip, mask uint32 // recip == 0 selects the mask
}

// NewRange precomputes the reduction into [0, n). It panics if n <= 0.
func NewRange(n int) Range {
	switch {
	case n <= 0:
		panic("hw: NewRange requires n > 0")
	case n > 0xFFFF:
		return Range{mask: 0xFFFF}
	case n&(n-1) == 0:
		return Range{mask: uint32(n - 1)}
	}
	return Range{n: uint32(n), recip: ^uint32(0)/uint32(n) + 1}
}

// DrawBelow advances the register len(dst) times and writes the j-th new
// state's int(state) % n, for r's n, into dst[j]: the single-cycle index
// generation of §5.2.1 ("generate a random number r between 0 and N-1 using
// a standard random number generator such as LFSR"), once per packet of a
// column. The state stays in a register for the whole column: through l it
// would be stored and reloaded on every step of what is one serial chain.
func (l *LFSR) DrawBelow(r Range, dst []int32) {
	s := l.state
	for j := range dst {
		s = lfsrStep(s)
		dst[j] = int32(r.reduce(s))
	}
	l.state = s
}

// reduce returns x % n for r's n.
func (r Range) reduce(x uint16) uint32 {
	if r.recip == 0 {
		return uint32(x) & r.mask
	}
	// The low word of x*recip is the fraction of x/n scaled by 2^32; times n,
	// its high word is the remainder.
	return uint32(uint64(uint32(x)*r.recip) * uint64(r.n) >> 32)
}

// PriorityEncodeRotatedAnd models an AND gate array feeding a rotated
// priority encoder — the masked temp_list datapath of §5.2.1, where the input
// table is gated by table membership and {v[start:N-1], v[0:start-1]} is
// encoded (round-robin and random operators). It returns the first set bit of
// a ∧ b at or cyclically after start, or -1 if the intersection is empty,
// without writing the intermediate vector.
func PriorityEncodeRotatedAnd(a, b *bitvec.Vector, start int) int {
	return bitvec.AndNextSetCyclic(a, b, start)
}
