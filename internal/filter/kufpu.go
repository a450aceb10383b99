package filter

import (
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/smbm"
)

// IOGenCycles is the latency of one I/O generator in the parallel chain
// pipeline (Figure 12). Each generator computes a set difference (next
// input) and a running union (output accumulation) — bit-vector logic with
// the same one-cycle cost as a BFPU.
const IOGenCycles = 1

// KUFPU is the programmable parallel chain pipeline of §5.3.1: a linear
// chain of MaxLen identical UFPUs joined by I/O generators that implement
// Equation 1,
//
//	I_1 = I,  I_i = I_{i-1} − O_{i-1},  O = ∪_{i=1..K} O_i.
//
// At execution time the first K units run the programmed opcode and the
// remaining MaxLen−K units are bypassed with no-op, so a K-UFPU with K=1 is
// functionally a single UFPU. Parallel chains express "top-K" policies: a
// chain of K min units filters the K smallest entries; a chain of K random
// units filters K distinct uniform samples.
type KUFPU struct {
	units []*UFPU
	table *smbm.SMBM

	// Reusable I/O-generator scratch (width = table capacity): cur holds
	// the residual input I_i flowing down the chain, unit the current
	// unit's output O_i before it joins the union. Fixed registers in the
	// hardware; fixed scratch here so steady-state Exec never allocates.
	cur  *bitvec.Vector
	unit *bitvec.Vector
}

// NewKUFPU creates a parallel chain of maxLen UFPUs over the given table,
// all configured identically with cfg. For stateful opcodes each unit gets
// independent state; random units are seeded with cfg.Seed+position so that
// different chain positions draw different samples.
func NewKUFPU(table *smbm.SMBM, maxLen int, cfg UFPUConfig) (*KUFPU, error) {
	if maxLen <= 0 {
		return nil, fmt.Errorf("filter: K-UFPU length must be positive, got %d", maxLen)
	}
	scratch := bitvec.NewBatch(table.Capacity(), 2)
	k := &KUFPU{
		units: make([]*UFPU, maxLen), table: table,
		cur:  scratch[0],
		unit: scratch[1],
	}
	for i := range k.units {
		c := cfg
		c.Seed = cfg.Seed + uint16(i)
		u, err := NewUFPU(table, c)
		if err != nil {
			return nil, err
		}
		k.units[i] = u
	}
	return k, nil
}

// MaxLen returns the physical chain length (the parameter K in Table 3's
// Cell sizing — the number of UFPUs instantiated).
func (k *KUFPU) MaxLen() int { return len(k.units) }

// Unit returns the chain's i-th UFPU. A chain run with K=1 is its unit 0.
func (k *KUFPU) Unit(i int) *UFPU { return k.units[i] }

// Table returns the resource table the chain is bound to.
func (k *KUFPU) Table() *smbm.SMBM { return k.table }

// Config returns the common configuration of the chain's units (seed as
// given to unit 0).
func (k *KUFPU) Config() UFPUConfig { return k.units[0].cfg }

// Stateful reports whether the chain's opcode keeps state across
// executions (see UnaryOp.Stateful).
func (k *KUFPU) Stateful() bool { return k.units[0].cfg.Op.Stateful() }

// ResetState resets the runtime state of every unit in the chain.
func (k *KUFPU) ResetState() {
	for _, u := range k.units {
		u.ResetState()
	}
}

// Exec runs the parallel chain with the first kActive units programmed and
// the rest bypassed, returning the union of the active units' outputs. It
// panics if kActive is outside [0, MaxLen]. kActive = 0 degenerates to an
// empty output table.
func (k *KUFPU) Exec(in *bitvec.Vector, kActive int) *bitvec.Vector {
	out := bitvec.New(in.Len())
	k.ExecInto(out, in, kActive)
	return out
}

// ExecInto is Exec writing its result into a caller-provided vector instead
// of allocating one — the steady-state datapath. out must have the input's
// width and must not alias in; any prior contents are overwritten.
func (k *KUFPU) ExecInto(out, in *bitvec.Vector, kActive int) {
	if kActive < 0 || kActive > len(k.units) {
		panic(fmt.Sprintf("filter: K=%d outside [0,%d]", kActive, len(k.units)))
	}
	if kActive == 1 {
		// Degenerate chain: O = O_1 and the I/O generators are identities
		// (I_1 = I, no residual is consumed downstream), so the unit writes
		// the chain output register directly with no copy/union/difference
		// passes. This is the common case — every compiled non-top-K
		// operator runs with K=1.
		k.units[0].ExecInto(out, in)
		return
	}
	out.Reset()
	cur := k.cur
	cur.CopyFrom(in)
	for i := 0; i < kActive; i++ {
		oi := k.unit
		k.units[i].ExecInto(oi, cur)
		// One fused pass per I/O generator (Equation 1): O ∪= O_i and
		// I_{i+1} = I_i − O_i.
		bitvec.OrAndNot(out, cur, oi)
	}
	// Units beyond kActive execute no-op on the residual input; their
	// outputs do not join the union (Figure 12's bypass circuit). They
	// still burn pipeline stages, which Latency accounts for.
}

// Latency returns the end-to-end latency of the chain in clock cycles: every
// one of the MaxLen positions contributes a UFPU (2 cycles) plus an I/O
// generator (1 cycle), regardless of K, because bypassed units still sit on
// the pipeline path.
func (k *KUFPU) Latency() uint64 {
	return uint64(len(k.units)) * (UFPUCycles + IOGenCycles)
}

// Cycles returns the cumulative cycles consumed by the chain's active units.
func (k *KUFPU) Cycles() uint64 {
	var c uint64
	for _, u := range k.units {
		c += u.Cycles()
	}
	return c
}
