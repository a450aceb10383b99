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

// Next advances the register one step and returns the new state. The taps
// are gated by the shifted-out bit with a mask, not a branch: that bit is
// the random stream itself, so a branch on it mispredicts every other step.
func (l *LFSR) Next() uint16 {
	lsb := l.state & 1
	l.state = l.state>>1 ^ (-lsb & 0xB400)
	return l.state
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

// NextBelow advances the register and returns int(Next()) % n for r's n,
// the single-cycle index generation of §5.2.1 ("generate a random number r
// between 0 and N-1 using a standard random number generator such as LFSR").
func (l *LFSR) NextBelow(r Range) int {
	x := uint32(l.Next())
	if r.recip == 0 {
		return int(x & r.mask)
	}
	// The low word of x*recip is the fraction of x/n scaled by 2^32; times n,
	// its high word is the remainder.
	return int(uint64(x*r.recip) * uint64(r.n) >> 32)
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
