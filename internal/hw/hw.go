// Package hw models the low-level hardware primitives that Thanos's filter
// module is built from: linear-feedback shift registers (the random-number
// source in §5.2.1), priority encoders (first/last-one detectors), and a
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
func NewLFSR(seed uint16) *LFSR {
	if seed == 0 {
		seed = 1
	}
	return &LFSR{state: seed}
}

// Next advances the register one step and returns the new state.
func (l *LFSR) Next() uint16 {
	lsb := l.state & 1
	l.state >>= 1
	if lsb != 0 {
		l.state ^= 0xB400
	}
	return l.state
}

// NextBelow returns a pseudo-random value in [0, n) by rejection-free
// modulo, matching the single-cycle index generation in §5.2.1 ("generate a
// random number r between 0 and N-1 using a standard random number generator
// such as LFSR"). It panics if n <= 0.
//
// The remainder is taken in uint32: the state is 16 bits wide, and a 64-bit
// signed division per random unit per packet was a fifth of a 1024-resource
// load-balancing decision. An n past the state's range leaves it unchanged.
func (l *LFSR) NextBelow(n int) int {
	if n <= 0 {
		panic("hw: NextBelow requires n > 0")
	}
	r := uint32(l.Next())
	if n <= 0xFFFF {
		r %= uint32(n)
	}
	return int(r)
}

// PriorityEncodeFirst returns the index of the first (lowest-index) set bit
// in v, or -1 if none: the classic priority encoder. This is a thin wrapper
// so the filter units read like the paper's datapath descriptions.
func PriorityEncodeFirst(v *bitvec.Vector) int { return v.FirstSet() }

// PriorityEncodeLast returns the index of the last (highest-index) set bit
// in v, or -1 if none: the reversed priority encoder used by the max
// operator.
func PriorityEncodeLast(v *bitvec.Vector) int { return v.LastSet() }

// PriorityEncodeRotated returns the index of the first set bit of v when the
// vector is rotated so position start comes first — i.e. the hardware feeds
// {v[start:N-1], v[0:start-1]} into a priority encoder (§5.2.1, round-robin
// and random operators). Returns -1 if v is empty.
func PriorityEncodeRotated(v *bitvec.Vector, start int) int {
	return v.NextSetCyclic(start)
}

// The And variants below model an AND gate array feeding a priority encoder
// — the masked temp_list datapath of §5.2.1 where the input table is gated
// by table membership before the encode. They are word-parallel fusions:
// equivalent to materializing a ∧ b and encoding it, without writing the
// intermediate vector, so the software model's select path stays as flat as
// the combinational logic it mirrors.

// PriorityEncodeFirstAnd returns the index of the first set bit of a ∧ b,
// or -1 if the intersection is empty.
func PriorityEncodeFirstAnd(a, b *bitvec.Vector) int { return bitvec.AndFirstSet(a, b) }

// PriorityEncodeLastAnd returns the index of the last set bit of a ∧ b, or
// -1 if the intersection is empty.
func PriorityEncodeLastAnd(a, b *bitvec.Vector) int { return bitvec.AndLastSet(a, b) }

// PriorityEncodeRotatedAnd is PriorityEncodeRotated over a ∧ b: the first
// set bit of the intersection at or cyclically after start, or -1 if the
// intersection is empty.
func PriorityEncodeRotatedAnd(a, b *bitvec.Vector, start int) int {
	return bitvec.AndNextSetCyclic(a, b, start)
}
