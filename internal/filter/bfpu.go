package filter

import (
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/hw"
)

// BFPUCycles is the processing latency of a BFPU in clock cycles (§5.2.2:
// "The processing latency is exactly one clock cycle").
const BFPUCycles = 1

// BFPUConfig is the compile-time configuration of a BFPU: the opcode plus
// the choice operand used by no-op (the 2:1 MUX select, Figure 11).
type BFPUConfig struct {
	Op     BinaryOp
	Choice uint8 // 0 selects table_in_1, 1 selects table_in_2 (no-op only)
}

// BFPU is a cycle-accurate functional model of Thanos's Binary Filter
// Processing Unit. Because tables are encoded as bit vectors, every binary
// set operation reduces to word-wise logic computable in one cycle.
type BFPU struct {
	cfg   BFPUConfig
	clock hw.Clock
}

// NewBFPU creates a BFPU with the given configuration.
func NewBFPU(cfg BFPUConfig) (*BFPU, error) {
	if cfg.Op > BDiff {
		return nil, fmt.Errorf("filter: invalid binary opcode %d", cfg.Op)
	}
	if cfg.Choice > 1 {
		return nil, fmt.Errorf("filter: BFPU choice must be 0 or 1, got %d", cfg.Choice)
	}
	return &BFPU{cfg: cfg}, nil
}

// Config returns the unit's compile-time configuration.
func (b *BFPU) Config() BFPUConfig { return b.cfg }

// Cycles returns the cumulative clock cycles consumed by Exec calls.
func (b *BFPU) Cycles() uint64 { return b.clock.Cycles() }

// Exec merges the two input tables per the configured opcode, charging
// BFPUCycles cycles. Inputs must have equal width.
func (b *BFPU) Exec(in1, in2 *bitvec.Vector) *bitvec.Vector {
	out := bitvec.New(in1.Len())
	b.ExecInto(out, in1, in2)
	return out
}

// ExecInto is Exec writing its result into a caller-provided vector instead
// of allocating one — the steady-state datapath. out must have the inputs'
// width; it may alias in1 or in2 (the operations are word-wise).
func (b *BFPU) ExecInto(out, in1, in2 *bitvec.Vector) {
	if in1.Len() != in2.Len() {
		panic(fmt.Sprintf("filter: BFPU input widths differ: %d vs %d", in1.Len(), in2.Len()))
	}
	b.clock.Tick(BFPUCycles)
	switch b.cfg.Op {
	case BNoOp:
		if b.cfg.Choice == 0 {
			out.CopyFrom(in1)
		} else {
			out.CopyFrom(in2)
		}
	case BUnion:
		out.Or(in1, in2)
	case BIntersect:
		out.And(in1, in2)
	case BDiff:
		out.AndNot(in1, in2)
	}
}
