package policy

import (
	"fmt"
	"math/bits"

	"repro/internal/bitvec"
	"repro/internal/filter"
	"repro/internal/smbm"
	"repro/internal/telemetry"
)

// Interp evaluates a policy by direct AST interpretation against an SMBM,
// using the same filter units the hardware pipeline is built from. It is the
// semantic oracle the compiler is tested against, and it is also usable on
// its own when pipeline shape constraints don't matter (e.g. inside the
// network simulator's idealized switches).
//
// Stateful operators (round-robin, random) keep per-node state across Exec
// calls, exactly as a configured hardware unit would across packets.
//
// Construction flattens the expression DAG into a linear program (one step
// per node, in dependency order) with a fixed result buffer per step, so
// steady-state Exec touches no maps and performs no heap allocations. Two
// layout optimizations apply: unshared intersect chains collapse into one
// multi-operand AND step (same tables, fewer output passes), and all step
// buffers are carved from a single cache-line-aligned bitvec arena so the
// program's working set is contiguous in memory.
//
// Evaluation is step-major over a batch (DecideBatch; DESIGN.md). A step no
// stateful unit feeds is a pure function of the table, which changes when a
// probe writes it, not when a packet arrives (§3, §5.1.4): it runs once per
// table version. A front step (a stateful selection over a static input)
// draws for the whole batch in one call; the rest runs per packet. The
// compiled pipeline evaluates every unit on every packet, which is what keeps
// Compile==Interp a differential against an uncached reference.
type Interp struct {
	table  *smbm.SMBM
	schema Schema
	policy *Policy
	prog   []interpStep
	vals   []*bitvec.Vector // vals[i] = result buffer of step i, fixed at build
	outIdx []int            // per policy output, its producing step index
	outs   []*bitvec.Vector // outs[i] = vals[outIdx[i]]: what Exec hands out
	labels []string         // labels[i] = source expression of step i, for telemetry
	cycles []uint32         // cycles[i] = modeled latency of step i (§5.2)
	stats  *telemetry.ChainStats
	leases bitvec.Lessor // thanosdebug builds only: Exec's views are leased

	// The phases, as step-index lists built in NewInterp. A content-static
	// step never reads a content-dynamic one, so running staticIdx before
	// dynIdx preserves every dependency; dynIdx is the nFront front steps,
	// then the tail, each in program order. staticVersion is the table
	// version the static buffers — and cachedPop below — were computed at;
	// staticValid distinguishes "never computed" from version 0.
	staticIdx     []int
	dynIdx        []int
	nFront        int
	staticVersion uint64
	staticValid   bool
	batch         []int // Batch's column; the front steps' cols grow with it

	// fin, tail-free programs only: per output, where its fallback chain
	// ends at staticVersion (refreshFinals). Without a tail every output's
	// emptiness is the table version's alone, so resolution is one read per
	// packet, and a front step that ends no requested output's chain need
	// not keep its column.
	fin []finalOut

	// Chain telemetry needs every step's popcount per execution. At a fixed
	// table version it varies only downstream of a stateful unit's output
	// (dynPop): a selection over a static input always emits one entry while
	// candidates remain. So pop-static counts are taken once per version into
	// cachedPop and charged n × cachedPop by FlushStats(n), and only the
	// (typically zero) dynPop steps, popIdx, accumulate per packet into
	// pendCand. Only the owning goroutine touches this; ChainStats absorbs it
	// on FlushStats.
	dynPop    []bool
	popIdx    []int // indices of dynPop steps, for the post-exec count pass
	cachedPop []uint32
	pendCand  []uint64 // dynPop per-step candidate sums awaiting FlushStats
}

// interpStep is one instruction of the flattened evaluation program. Table
// steps are free at run time (their value slot is the SMBM's live membership
// view); unary/binary steps run their dedicated unit into the step's buffer;
// fused steps reduce a whole intersect chain in one batched AND pass.
type interpStep struct {
	kind  stepKind
	unit  *filter.KUFPU    // stepUnary, stepSelect
	k     int              // stepUnary: active chain length
	sel   *filter.UFPU     // stepSelect: the chain's one unit
	pick  int              // stepSelect: the id in the step's buffer, -1 when empty
	col   []int32          // front steps: col[k] is the batch's k-th valid packet's pick
	bin   *filter.BFPU     // stepBinary
	a, b  int              // operand step indices (a only, for stepUnary)
	fsrcs []*bitvec.Vector // stepFused: operand buffers, bound at build
}

// finalOut is the answer of one output's fallback chain at a table
// version: front step step's column when step >= 0, else the constant id.
type finalOut struct {
	step, id int
}

type stepKind uint8

const (
	stepTable stepKind = iota
	stepUnary
	// stepSelect is a K=1 chain of a selection opcode (min, max, rr, random):
	// the unit emits an id, kept in pick; the buffer is its one-hot decode.
	stepSelect
	stepBinary
	// stepFused is a left-to-right intersect chain collapsed into one
	// multi-operand AND (bitvec.AndInto): out = src0 ∧ src1 ∧ ... ∧ srcN.
	// Only chains of unshared, non-output intersect nodes fuse, so every
	// table a later step (or an output) reads still has its own buffer.
	// The fused step charges the same summed BFPU cycles the unfused chain
	// would, keeping modeled latency accounting identical in total.
	stepFused
)

// NewInterp builds an interpreter for the policy over the given table. The
// policy is validated against the schema; every unary node gets a dedicated
// K-UFPU (with deterministic seeds assigned by AssignSeeds where the node
// doesn't fix one) and every binary node a dedicated BFPU.
func NewInterp(table *smbm.SMBM, schema Schema, p *Policy) (*Interp, error) {
	if err := p.Validate(schema); err != nil {
		return nil, err
	}
	if len(schema.Attrs) != table.NumMetrics() {
		return nil, fmt.Errorf("policy: schema has %d attributes, table has %d metrics",
			len(schema.Attrs), table.NumMetrics())
	}
	it := &Interp{table: table, schema: schema, policy: p}
	seeds := AssignSeeds(p)
	// Pre-pass: count each node's references (a node used more than once
	// must keep its own step so sharers read one buffer) and mark output
	// roots (their buffers are handed to Resolve). The unique non-table
	// node count bounds the number of step buffers, which are carved from
	// one cache-line-aligned arena so a decision's working set is
	// contiguous.
	uses := make(map[Expr]int)
	outRoot := make(map[Expr]bool)
	nonTable := 0
	var scan func(e Expr)
	scan = func(e Expr) {
		uses[e]++
		if uses[e] > 1 {
			return
		}
		switch n := e.(type) {
		case *Unary:
			nonTable++
			scan(n.Input)
		case *Binary:
			nonTable++
			scan(n.Left)
			scan(n.Right)
		}
	}
	for _, o := range p.Outputs {
		outRoot[o.Expr] = true
		scan(o.Expr)
	}
	arena := bitvec.NewBatch(table.Capacity(), nonTable)
	nextBuf := func() *bitvec.Vector {
		v := arena[0]
		arena = arena[1:]
		return v
	}
	idx := make(map[Expr]int) // build-time only; Exec never touches maps
	// dynContent[i]: step i's output table differs between executions at a
	// fixed table version — true iff a stateful unit (random, round-robin)
	// is, or feeds, the step. It decides the step's phase.
	var dynContent []bool
	// emit appends one step — its instruction, result buffer, modeled cycles
	// and the two phase classes — and returns its index.
	emit := func(e Expr, st interpStep, buf *bitvec.Vector, cycles uint64, dyn, dynPop bool) (int, error) {
		idx[e] = len(it.prog)
		it.prog = append(it.prog, st)
		it.vals = append(it.vals, buf)
		it.labels = append(it.labels, e.String())
		it.cycles = append(it.cycles, uint32(cycles))
		dynContent = append(dynContent, dyn)
		it.dynPop = append(it.dynPop, dynPop)
		return idx[e], nil
	}
	var build func(e Expr) (int, error)
	build = func(e Expr) (int, error) {
		if i, done := idx[e]; done {
			return i, nil
		}
		switch n := e.(type) {
		case *Table:
			// The live membership view is stable across Add/Delete, so the
			// value slot can be bound once at build time, and it is free
			// (§5.1.4).
			return emit(e, interpStep{kind: stepTable}, table.MembersView(), 0, false, false)
		case *Unary:
			a, err := build(n.Input)
			if err != nil {
				return 0, err
			}
			cfg, k, err := unaryConfig(n, it.schema, seeds)
			if err != nil {
				return 0, err
			}
			u, err := filter.NewKUFPU(table, k, cfg)
			if err != nil {
				return 0, err
			}
			st := interpStep{kind: stepUnary, unit: u, k: k, a: a, pick: -1}
			if k == 1 && n.Op.Selects() {
				st.kind, st.sel = stepSelect, u.Unit(0)
			}
			// A unary step's popcount varies only when its input's CONTENT
			// does: every opcode (copy, predicate, or selection) emits a
			// deterministic count for a fixed input table. No-op forwards
			// the input unchanged, so it inherits the input's pop class.
			dynPop := dynContent[a]
			if n.Op == filter.UNoOp {
				dynPop = it.dynPop[a]
			}
			return emit(e, st, nextBuf(), u.Latency(), u.Stateful() || dynContent[a], dynPop)
		case *Binary:
			// An n-ary intersect parses as a left-leaning chain of binary
			// nodes. When the interior nodes are unshared and not outputs,
			// no other step ever reads their intermediate tables, so the
			// whole chain collapses into one batched AND over its leaves —
			// the same result with one output pass instead of one per node.
			if leaves := fuseAndLeaves(n, uses, outRoot); leaves != nil {
				fsrcs := make([]*bitvec.Vector, len(leaves))
				dyn := false
				for j, leaf := range leaves {
					li, err := build(leaf)
					if err != nil {
						return 0, err
					}
					fsrcs[j] = it.vals[li]
					dyn = dyn || dynContent[li]
				}
				// Same total as the (len(leaves)-1)-node BFPU chain.
				return emit(e, interpStep{kind: stepFused, fsrcs: fsrcs}, nextBuf(), uint64(len(leaves)-1)*filter.BFPUCycles, dyn, dyn)
			}
			a, err := build(n.Left)
			if err != nil {
				return 0, err
			}
			bIdx, err := build(n.Right)
			if err != nil {
				return 0, err
			}
			b, err := filter.NewBFPU(filter.BFPUConfig{Op: n.Op, Choice: n.Choice})
			if err != nil {
				return 0, err
			}
			// A set operation over content-dynamic operands has a
			// content-dependent (so execution-dependent) result size.
			dyn := dynContent[a] || dynContent[bIdx]
			return emit(e, interpStep{kind: stepBinary, bin: b, a: a, b: bIdx}, nextBuf(), filter.BFPUCycles, dyn, dyn)
		}
		return 0, fmt.Errorf("policy: unknown expression type %T", e)
	}
	for _, o := range p.Outputs {
		si, err := build(o.Expr)
		if err != nil {
			return nil, err
		}
		it.outIdx = append(it.outIdx, si)
		it.outs = append(it.outs, it.vals[si])
	}
	it.cachedPop = make([]uint32, len(it.prog))
	var tail []int
	for i := range it.prog {
		switch st := &it.prog[i]; {
		case dynContent[i] && st.kind == stepSelect && !dynContent[st.a]:
			it.dynIdx = append(it.dynIdx, i) // a front step
		case dynContent[i]:
			tail = append(tail, i)
		case st.kind != stepTable: // the live membership view needs no evaluation
			it.staticIdx = append(it.staticIdx, i)
		}
		if it.dynPop[i] {
			it.popIdx = append(it.popIdx, i)
		}
	}
	it.nFront = len(it.dynIdx)
	it.dynIdx = append(it.dynIdx, tail...)
	if len(tail) == 0 {
		it.fin = make([]finalOut, len(it.outIdx))
	}
	return it, nil
}

// fuseAndLeaves decides whether the intersect chain rooted at n collapses
// into one fused AND step, and if so returns its leaf expressions in
// left-to-right source order. A descendant intersect node is absorbed only
// when it is referenced exactly once (unshared) and is not itself a policy
// output — in both of those cases another reader needs the intermediate
// table, so the node keeps its own step. Chains of fewer than three leaves
// return nil: a two-input intersect is already a single BFPU pass.
func fuseAndLeaves(n *Binary, uses map[Expr]int, outRoot map[Expr]bool) []Expr {
	if n.Op != filter.BIntersect {
		return nil
	}
	var leaves []Expr
	var walk func(e Expr)
	walk = func(e Expr) {
		if b, ok := e.(*Binary); ok && b.Op == filter.BIntersect && uses[e] == 1 && !outRoot[e] {
			walk(b.Left)
			walk(b.Right)
			return
		}
		leaves = append(leaves, e)
	}
	walk(n.Left)
	walk(n.Right)
	if len(leaves) < 3 {
		return nil
	}
	return leaves
}

// unaryConfig converts a unary AST node into a UFPU configuration plus the
// effective chain length.
func unaryConfig(n *Unary, schema Schema, seeds map[*Unary]uint16) (filter.UFPUConfig, int, error) {
	cfg := filter.UFPUConfig{Op: n.Op, Rel: n.Rel, Val: n.Val, Seed: seeds[n]}
	if n.Op.NeedsAttr() {
		dim, err := schema.Dim(n.Attr)
		if err != nil {
			return cfg, 0, err
		}
		cfg.Attr = dim
	}
	k := n.K
	if k < 1 {
		k = 1
	}
	return cfg, k, nil
}

// AssignSeeds returns a deterministic LFSR seed for every unary node in the
// policy: the node's own Seed if non-zero, otherwise a seed derived from the
// node's position in a depth-first, output-ordered traversal and a hash of
// the policy name (so distinct policies draw decorrelated random streams).
// Interpreter and compiler share this assignment so that stochastic
// policies behave identically under both.
func AssignSeeds(p *Policy) map[*Unary]uint16 {
	seeds := make(map[*Unary]uint16)
	visited := make(map[Expr]bool)
	idx := uint16(0)
	var nameHash uint16
	for _, ch := range p.Name {
		nameHash = nameHash*31 + uint16(ch)
	}
	var walk func(e Expr)
	walk = func(e Expr) {
		if visited[e] {
			return
		}
		visited[e] = true
		switch n := e.(type) {
		case *Unary:
			idx++
			if n.Seed != 0 {
				seeds[n] = n.Seed
			} else {
				// Spread defaults so sibling chains and distinct policies
				// draw unrelated streams.
				seeds[n] = idx*2654 + nameHash*3 + 1
			}
			walk(n.Input)
		case *Binary:
			walk(n.Left)
			walk(n.Right)
		}
	}
	for _, o := range p.Outputs {
		walk(o.Expr)
	}
	return seeds
}

// Policy returns the interpreted policy.
func (it *Interp) Policy() *Policy { return it.policy }

// Steps returns the number of steps in the flattened evaluation program —
// the length telemetry handles must match (see AttachTelemetry).
func (it *Interp) Steps() int { return len(it.prog) }

// StepLabels returns the source expression of every program step, in
// execution order — the label vocabulary used by chain telemetry. The slice
// is a fresh copy.
func (it *Interp) StepLabels() []string {
	return append([]string(nil), it.labels...)
}

// AttachTelemetry wires per-step invocation and candidate-popcount
// counters (§5.3 selectivity provenance) into this interpreter. The handle
// must have exactly one counter pair per program step — typically built as
// telemetry.NewChainStats(reg, prefix, it.StepLabels(), shards). Pass nil
// to detach. Panics on a step-count mismatch: that is a wiring bug.
func (it *Interp) AttachTelemetry(cs *telemetry.ChainStats) {
	if cs != nil && cs.Steps() != len(it.prog) {
		panic(fmt.Sprintf("policy: ChainStats has %d steps, interpreter has %d", cs.Steps(), len(it.prog)))
	}
	it.stats = cs
	it.pendCand = nil
	if cs != nil {
		it.pendCand = make([]uint64, len(it.prog))
	}
}

// FlushStats publishes per-step counts for the n decisions made since the
// previous flush into the attached ChainStats: the engine flushes once per
// shard visit, the module once per decision. All n must have run at the
// table's current version — flush before mutating the table — so every
// pop-static step is charged n × the version's cached popcount. No-op
// without attached telemetry or when n is zero.
func (it *Interp) FlushStats(n uint64) {
	cs := it.stats
	if cs == nil || n == 0 {
		return
	}
	for i := range it.pendCand {
		// Every step's output is part of every execution, whichever phase
		// computed it, so one shared count covers all invocation columns.
		cs.Invocations[i].Add(n)
		var c uint64
		if it.dynPop[i] {
			c = it.pendCand[i]
			it.pendCand[i] = 0
		} else {
			c = n * uint64(it.cachedPop[i])
		}
		if c != 0 {
			cs.Candidates[i].Add(c)
		}
	}
}

// Exec runs Decide(0) and returns one table (bit vector) per output, in
// output order: read-only views of the interpreter's own buffers, valid until
// the next table write or decision, whichever comes first. Static buffers are
// rewritten only when the table's version moves and selection buffers are
// patched one bit at a time, so a caller that modified a view in place would
// corrupt every later result: copy (Clone, IDs) what must be kept or changed.
// thanosdebug builds trap both violations (bitvec.Lessor).
func (it *Interp) Exec() []*bitvec.Vector {
	it.Decide(0)
	return it.leases.Lease(it.outs, it.table.DebugVersion())
}

// Decide executes the policy for one packet and returns the resource id that
// output out selects after fallback resolution, or -1 when the chain ends
// empty: Resolve(p, Exec(), out).FirstSet() without moving a vector. Figure
// 14's MUX stage only asks each table "empty or not", which a selection
// output's id answers; a set-valued output costs one priority encode. It is
// DecideBatch's one-packet case.
func (it *Interp) Decide(out int) int {
	col := it.Batch(1)
	col[0] = out
	it.DecideBatch(col)
	return col[0]
}

// Batch returns an n-packet column for DecideBatch: interpreter scratch,
// valid until the next Batch, Decide or Exec.
//
// Amortized: it grows only when a batch is larger than any before it on
// this interpreter; the steady state is a re-slice.
func (it *Interp) Batch(n int) []int {
	if n <= len(it.batch) {
		return it.batch[:n]
	}
	c := max(n, 2*len(it.batch))
	it.batch = make([]int, c)
	cols := make([]int32, c*it.nFront)
	for f, i := range it.dynIdx[:it.nFront] {
		it.prog[i].col = cols[f*c : (f+1)*c : (f+1)*c]
	}
	return it.batch[:n]
}

// DecideBatch decides packets in arrival order: col, a Batch column, holds
// packet j's output index at j and gets back its id after fallback, -1 when
// the chain ends empty. A packet naming no output gets -1, draws nothing and
// counts in failed. Static steps run once per table version, each front step
// once for the batch, the tail per packet (DESIGN.md): each unit still sees
// the packets in order, so every result equals one Decide per packet. In a
// tail-free program a front step whose picks no requested output reads
// advances by Skip and draws for the last packet only, whose pick its buffer
// keeps.
func (it *Interp) DecideBatch(col []int) (failed int) {
	it.leases.Expire()
	// asked has bit out mod 64 set for every requested output: with more
	// than 64 outputs it over-asks, which costs draws, not correctness.
	var asked uint64
	for j, out := range col {
		if uint(out) >= uint(len(it.outIdx)) {
			col[j], failed = -1, failed+1
			continue
		}
		asked |= 1 << (uint(out) & 63)
	}
	m := len(col) - failed
	if m == 0 {
		return failed
	}
	ver := it.table.Version()
	stale := !it.staticValid || it.staticVersion != ver
	if stale {
		it.run(it.staticIdx)
	}
	front, tail := it.dynIdx[:it.nFront], it.dynIdx[it.nFront:]
	// read has bit i mod 64 set for every front step i whose picks some
	// packet reads: all of them under a tail, else those ending an asked
	// output's chain. Aliasing over-reads, like asked.
	read := ^uint64(0)
	if len(tail) == 0 {
		if stale {
			it.refreshFinals()
		}
		read = 0
		for out, f := range it.fin {
			if asked>>(out&63)&1 != 0 && f.step >= 0 {
				read |= 1 << (f.step & 63)
			}
		}
	}
	for _, i := range front {
		st := &it.prog[i]
		if in := it.vals[st.a]; read>>(i&63)&1 != 0 || m == 1 {
			st.sel.SelectInto(in, st.col[:m])
		} else { // nobody reads the first m-1 picks: advance past them
			st.sel.Skip(in, m-1)
			st.sel.SelectInto(in, st.col[m-1:m])
		}
		if len(tail) == 0 { // without a tail, only the last packet's picks stay
			it.setPick(i, int(st.col[m-1]))
		}
	}
	if len(tail) == 0 && failed == 0 && asked&(asked-1) == 0 && len(it.fin) <= 64 {
		// Every packet asks one output: resolution is one copy of the column
		// its chain ends at, or one fill with its constant id.
		if f := it.fin[bits.TrailingZeros64(asked)]; f.step < 0 {
			for j := range col {
				col[j] = f.id
			}
		} else {
			for j, id := range it.prog[f.step].col[:m] {
				col[j] = int(id)
			}
		}
	} else {
		k := 0
		for j, out := range col {
			if out < 0 {
				continue
			}
			if len(tail) != 0 {
				for _, i := range front {
					it.setPick(i, int(it.prog[i].col[k]))
				}
				it.run(tail)
				if it.stats != nil {
					for _, i := range it.popIdx {
						it.pendCand[i] += uint64(it.vals[i].Count())
					}
				}
				col[j] = it.resolve(k, out)
			} else if f := it.fin[out]; f.step >= 0 {
				col[j] = int(it.prog[f.step].col[k])
			} else {
				col[j] = f.id
			}
			k++
		}
	}
	if stale {
		// Pop-static includes selection units over static inputs, whose
		// buffers the dynamic phase just filled — hence after both phases.
		for i, dyn := range it.dynPop {
			if !dyn {
				it.cachedPop[i] = uint32(it.vals[i].Count())
			}
		}
		it.staticVersion, it.staticValid = ver, true
	}
	return failed
}

// refreshFinals records fin at the current table version: resolve's hop
// rule, cycles included, walked over each output's emptiness instead of a
// packet's ids. A front step is empty exactly when its static input holds
// no live member; a nonempty one is answered by its column.
func (it *Interp) refreshFinals() {
	fb := it.policy.FallbackOf
	for o := range it.fin {
		out, fin := o, finalOut{step: -1, id: -1}
		for hops := 0; hops < len(it.outIdx); hops++ {
			si := it.outIdx[out]
			st := &it.prog[si]
			front, id := st.col != nil, st.pick
			if front {
				id = bitvec.AndFirstSet(it.vals[st.a], it.table.MembersView())
			} else if st.kind != stepSelect {
				id = it.vals[si].FirstSet()
			}
			if id >= 0 && front {
				fin.step = si
			} else if id >= 0 {
				fin.id = id
			}
			if id >= 0 || fb == nil || fb[out] == -1 {
				break
			}
			out = fb[out]
		}
		it.fin[o] = fin
	}
}

// setPick moves selection step i's one-hot buffer to id, one bit at a time.
func (it *Interp) setPick(i, id int) {
	if st := &it.prog[i]; id != st.pick {
		if st.pick >= 0 {
			it.vals[i].Clear(st.pick)
		}
		if id >= 0 {
			it.vals[i].Set(id)
		}
		st.pick = id
	}
}

// resolve returns the batch's k-th valid packet's id from output out.
func (it *Interp) resolve(k, out int) int {
	fb := it.policy.FallbackOf
	for hops := 0; hops < len(it.outIdx); hops++ { // one hop per output at most: see Resolve
		si := it.outIdx[out]
		st := &it.prog[si]
		id := st.pick
		if st.col != nil {
			id = int(st.col[k])
		} else if st.kind != stepSelect {
			id = it.vals[si].FirstSet()
		}
		if id >= 0 || fb == nil || fb[out] == -1 {
			return id
		}
		out = fb[out]
	}
	return -1
}

// run evaluates the listed steps, in list order, each into its own buffer —
// the one evaluation loop of the static phase and the tail.
func (it *Interp) run(steps []int) {
	for _, i := range steps {
		st := &it.prog[i]
		switch st.kind {
		case stepSelect:
			it.setPick(i, st.sel.Select(it.vals[st.a]))
		case stepUnary:
			st.unit.ExecInto(it.vals[i], it.vals[st.a], st.k)
		case stepBinary:
			st.bin.ExecInto(it.vals[i], it.vals[st.a], it.vals[st.b])
		case stepFused:
			it.vals[i].AndInto(st.fsrcs...)
		}
	}
}

// ResetState resets all stateful units (round-robin pointers, LFSRs) in
// program (dependency) order, which is deterministic by construction.
func (it *Interp) ResetState() {
	for i := range it.prog {
		if it.prog[i].unit != nil {
			it.prog[i].unit.ResetState()
		}
	}
}

// Resolve applies the policy's fallback (MUX) semantics to raw outputs: it
// returns the table for output i, or — when that table is empty — the table
// of its fallback output, following chains. This is the job Figure 14
// assigns to the RMT match-action stage immediately after the filter module.
func Resolve(p *Policy, outs []*bitvec.Vector, i int) *bitvec.Vector {
	if len(outs) != len(p.Outputs) {
		panic(fmt.Sprintf("policy: %d outputs for policy with %d", len(outs), len(p.Outputs)))
	}
	if i < 0 || i >= len(outs) {
		panic(fmt.Sprintf("policy: output index %d out of range", i))
	}
	// Follow fallback edges for at most len(outs) hops: any longer chain must
	// have revisited an output, which terminates resolution. Every table on
	// such a cycle is empty, so stopping anywhere on it yields the same
	// (empty) result — without a per-call visited map.
	for hops := 0; hops < len(outs); hops++ {
		if outs[i].Any() || p.FallbackOf == nil || p.FallbackOf[i] == -1 {
			return outs[i]
		}
		i = p.FallbackOf[i]
	}
	return outs[i]
}
