package filter

import (
	"fmt"
	"math/bits"

	"repro/internal/bitvec"
	"repro/internal/hw"
	"repro/internal/smbm"
)

// UFPUCycles is the processing latency of one UFPU in clock cycles
// (§5.2.1: "The processing latency is two clock cycles").
const UFPUCycles = 2

// UFPUConfig is the compile-time configuration of a UFPU: the opcode plus
// the attrX / val / rel_op operands shown in Figure 11. Attr indexes a
// metric dimension of the SMBM; it is ignored by no-op and random. Seed
// seeds the unit's LFSR for the random opcode.
type UFPUConfig struct {
	Op   UnaryOp
	Attr int
	Rel  RelOp
	Val  int64
	Seed uint16
}

// UFPU is a cycle-accurate functional model of Thanos's Unary Filter
// Processing Unit. A UFPU is bound to one SMBM resource table, reads the
// table's dimensions every cycle (flip-flop parallelism, §5.1.3), and keeps
// the per-unit state the paper describes: <last_id, w> for round-robin and
// an LFSR for random.
type UFPU struct {
	cfg    UFPUConfig
	table  *smbm.SMBM
	lfsr   hw.LFSR
	below  hw.Range // random only: the LFSR reduction into [0, N)
	lastID int
	w      int64
	clock  hw.Clock

	// Predicate satisfying set, predicate units only: bit id set iff the
	// resource's attrX value satisfies rel_op val. In hardware this is the
	// comparator column latched against the sorted dimension; here it is
	// rebuilt only when the table's version counter moves, so steady-state
	// predicate evaluation is one word-parallel AND instead of a
	// per-position scan. satVersion is the table version sat was built
	// against; satFresh distinguishes "never built" from version 0.
	sat        *bitvec.Vector
	satVersion uint64
	satFresh   bool
}

// NewUFPU creates a UFPU bound to the given resource table with the given
// configuration. It returns an error if the configuration references a
// metric dimension the table does not have.
func NewUFPU(table *smbm.SMBM, cfg UFPUConfig) (*UFPU, error) {
	if table == nil {
		return nil, fmt.Errorf("filter: UFPU requires a table")
	}
	if cfg.Op.NeedsAttr() && (cfg.Attr < 0 || cfg.Attr >= table.NumMetrics()) {
		return nil, fmt.Errorf("filter: %s references metric %d, table has %d",
			cfg.Op, cfg.Attr, table.NumMetrics())
	}
	if cfg.Op > URandom {
		return nil, fmt.Errorf("filter: invalid unary opcode %d", cfg.Op)
	}
	u := &UFPU{cfg: cfg, table: table, lfsr: hw.NewLFSR(cfg.Seed), lastID: -1}
	switch cfg.Op {
	case UPredicate:
		u.sat = bitvec.New(table.Capacity())
	case URandom:
		u.below = hw.NewRange(table.Capacity())
	}
	return u, nil
}

// Config returns the unit's compile-time configuration.
func (u *UFPU) Config() UFPUConfig { return u.cfg }

// Cycles returns the cumulative clock cycles consumed by Exec calls.
func (u *UFPU) Cycles() uint64 { return u.clock.Cycles() }

// ResetState restores the unit's runtime state (round-robin pointer, LFSR)
// to its post-configuration value. Configuration is unchanged.
func (u *UFPU) ResetState() {
	u.lastID, u.w = -1, 0
	u.lfsr = hw.NewLFSR(u.cfg.Seed)
}

// Exec applies the configured unary operation to the input table and
// returns the output table, charging UFPUCycles cycles. The input vector's
// width must equal the table capacity. Input bits for ids not currently in
// the SMBM are treated as invalid (masked to NULL in the temp_list, §5.2.1)
// by every opcode except no-op, which is a pure combinational copy.
func (u *UFPU) Exec(in *bitvec.Vector) *bitvec.Vector {
	out := bitvec.New(in.Len())
	u.ExecInto(out, in)
	return out
}

// ExecInto is Exec writing its result into a caller-provided vector instead
// of allocating one — the steady-state datapath. out must have the input's
// width and must not alias in (the hardware's output register is distinct
// from its input bus); any prior contents of out are overwritten.
func (u *UFPU) ExecInto(out, in *bitvec.Vector) {
	if u.cfg.Op.Selects() {
		// A selection opcode ends in a priority encoder; the output bus is
		// its index decoded back to one-hot.
		out.Reset()
		if id := u.Select(in); id >= 0 {
			out.Set(id)
		}
		return
	}
	u.checkWidth(in)
	u.clock.Tick(UFPUCycles)
	if u.cfg.Op == UNoOp {
		out.CopyFrom(in)
		return
	}
	// Predicate. Cycle 1: copy the attrX dimension into a temp list, masking
	// entries whose resource is absent from the input vector. Cycle 2: apply
	// the predicate to each valid entry in parallel and set output bits
	// through the reverse map.
	//
	// The comparator outputs depend only on table contents, so the model
	// caches them as a satisfying-set vector keyed on the table's version
	// counter: between writes, the two hardware cycles reduce to one
	// word-parallel AND.
	if !u.satFresh || u.satVersion != u.table.Version() {
		u.rebuildSat()
	}
	out.And(in, u.sat)
}

// checkWidth panics unless in is as wide as the table. The message is built
// out of line (badWidth), in the failing branch only, so the check inlines.
func (u *UFPU) checkWidth(in *bitvec.Vector) {
	if in.Len() != u.table.Capacity() {
		u.badWidth(in)
	}
}

//go:noinline
func (u *UFPU) badWidth(in *bitvec.Vector) {
	panic(fmt.Sprintf("filter: input width %d != table capacity %d", in.Len(), u.table.Capacity()))
}

// Select is SelectInto for one packet: the id it picks — the index the
// unit's priority encoder emits (§5.2.1) — or -1 when no input entry is live.
func (u *UFPU) Select(in *bitvec.Vector) int {
	var id [1]int32
	u.SelectInto(in, id[:])
	return int(id[0])
}

// SelectInto runs the unit for len(ids) packets in arrival order over one
// input, writing packet j's pick into ids[j] and charging UFPUCycles each:
// the one implementation of the selection opcodes. It panics on no-op and
// predicate, whose outputs are sets.
func (u *UFPU) SelectInto(in *bitvec.Vector, ids []int32) {
	u.checkWidth(in)
	u.clock.Tick(uint64(len(ids)) * UFPUCycles)
	mem := u.table.MembersView()
	switch u.cfg.Op {
	case UMin, UMax:
		// Cycle 1: copy sorted attrX list with masking. Cycle 2: priority-
		// encode the first (min) or last (max) valid entry: the live input id
		// with the smallest (largest) sorted position, found in O(popcount)
		// via the id-indexed position column. Stateless: one pick for all.
		bestPos, bestID := -1, int32(-1)
		for wi, nw := 0, in.NumWords(); wi < nw; wi++ {
			for m := in.Word(wi) & mem.Word(wi); m != 0; m &= m - 1 {
				id := wi*64 + bits.TrailingZeros64(m)
				p := u.table.PosInDim(id, u.cfg.Attr)
				if bestPos < 0 || (u.cfg.Op == UMin && p < bestPos) || (u.cfg.Op == UMax && p > bestPos) {
					bestPos, bestID = p, int32(id)
				}
			}
		}
		for j := range ids {
			ids[j] = bestID
		}

	case URoundRobin:
		for j := range ids {
			ids[j] = int32(u.selectRoundRobin(in, mem))
		}

	case URandom:
		// Cycle 1: LFSR produces a random index r. Cycle 2: select the first
		// live input at or cyclically after r (r itself when in[r] is set
		// and the resource is a member). The membership mask fuses into the
		// encode, so no intermediate in ∧ members vector is materialized.
		//
		// The model runs cycle 1 for every packet before cycle 2 for any,
		// the index column landing in ids: the draws are one serial chain
		// through the register, while the encodes are independent of each
		// other. The live bits at or after r in r's word settle almost every
		// encode in one test, with no branch on whether in[r] itself is set;
		// only a miss to the end of the word runs the full rotated encode.
		u.lfsr.DrawBelow(u.below, ids)
		for j, r := range ids {
			if m := (in.Word(int(r>>6)) & mem.Word(int(r>>6))) >> uint(r&63); m != 0 {
				ids[j] = r + int32(bits.TrailingZeros64(m))
			} else {
				ids[j] = int32(hw.PriorityEncodeRotatedAnd(in, mem, int(r)))
			}
		}
	default:
		panic("filter: Select on set-valued opcode " + u.cfg.Op.String())
	}
}

// Skip advances the unit exactly as n selections over in would, charging
// their n·UFPUCycles, without producing the picks: for a caller that reads
// none of them. Random steps its LFSR n times (one draw per selection,
// whatever the draw hits), round-robin runs its datapath n times, and min
// and max are stateless. It panics on no-op and predicate, like SelectInto.
func (u *UFPU) Skip(in *bitvec.Vector, n int) {
	u.checkWidth(in)
	u.clock.Tick(uint64(n) * UFPUCycles)
	switch u.cfg.Op {
	case UMin, UMax:
	case URoundRobin:
		mem := u.table.MembersView()
		for range n {
			u.selectRoundRobin(in, mem)
		}
	case URandom:
		u.lfsr.Skip(n)
	default:
		panic("filter: Skip on set-valued opcode " + u.cfg.Op.String())
	}
}

// rebuildSat recomputes the predicate satisfying set from the sorted attrX
// dimension. Runs off the steady path: only when the table version moved
// since the last rebuild (probe writes), and amortized across all decisions
// until the next write.
func (u *UFPU) rebuildSat() {
	u.sat.Reset()
	d := u.table.Dim(u.cfg.Attr)
	for p := 0; p < d.Len(); p++ {
		if u.cfg.Rel.Eval(d.Value(p), u.cfg.Val) {
			u.sat.Set(d.ID(p))
		}
	}
	u.satVersion, u.satFresh = u.table.Version(), true
}

// selectRoundRobin implements the weighted round-robin datapath of §5.2.1.
// The unit holds <last_id, w>: the last selected resource and how many times
// in a row it has been selected. While last_id remains a valid input and
// w ≤ weight(last_id) (weight = its attrX value), last_id is re-selected;
// otherwise the unit advances to the next valid id in cyclic order. Note the
// paper's comparison "w less than or equal to weight" yields weight+1
// consecutive selections for a resource of weight w (one at switch time plus
// w re-selections); we reproduce that behaviour exactly.
//
// One deviation from the paper's letter: the paper feeds the rotation
// {in[last_id:N-1], in[0:last_id-1]} to the priority encoder, whose first
// element is last_id itself — taken literally, a still-valid last_id would
// be re-selected forever once its weight is exhausted. We rotate from
// last_id+1 so the encoder returns the next *different* valid id (wrapping
// back to last_id only if it is the sole valid input), which is the
// behaviour the surrounding text describes.
func (u *UFPU) selectRoundRobin(in, mem *bitvec.Vector) int {
	if u.lastID >= 0 && in.Get(u.lastID) && mem.Get(u.lastID) && u.w <= u.weightOf(u.lastID) {
		u.w++
		return u.lastID
	}
	start := 0
	if u.lastID >= 0 {
		start = (u.lastID + 1) % in.Len()
	}
	i := hw.PriorityEncodeRotatedAnd(in, mem, start)
	if i >= 0 {
		u.lastID, u.w = i, 1
	}
	return i
}

// weightOf returns a resource's round-robin weight (its attrX value), or 0
// if the resource left the table.
func (u *UFPU) weightOf(id int) int64 {
	v, ok := u.table.Value(id, u.cfg.Attr)
	if !ok {
		return 0
	}
	return v
}
