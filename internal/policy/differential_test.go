package policy

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/filter"
	"repro/internal/pipeline"
	"repro/internal/smbm"
)

// diffSchema is the attribute universe for generated policies.
var diffSchema = Schema{Attrs: []string{"a", "b", "c"}}

// genExprDiff generates a random expression over diffSchema: op chains of
// no-op/predicate/min/max/round-robin/random unaries (serial composition by
// nesting, parallel composition via K > 1 chains) merged with
// union/intersect/diff. The construction is a pure function of r's stream,
// so two rands with the same seed yield structurally identical,
// pointer-disjoint ASTs — one for the interpreter, one for the compiler.
func genExprDiff(r *rand.Rand, depth int) Expr {
	if depth <= 0 || r.Intn(4) == 0 {
		return &Table{}
	}
	attr := diffSchema.Attrs[r.Intn(len(diffSchema.Attrs))]
	pickK := func() int {
		// 0 means a single unit; >1 is a parallel chain (top-K / K samples).
		return []int{0, 0, 2, 3}[r.Intn(4)]
	}
	switch r.Intn(9) {
	case 0:
		return &Unary{Op: filter.UNoOp, Input: genExprDiff(r, depth-1)}
	case 1, 2:
		return &Unary{Op: filter.UPredicate, Attr: attr,
			Rel: filter.RelOp(r.Intn(6)), Val: int64(r.Intn(100)), Input: genExprDiff(r, depth-1)}
	case 3:
		return &Unary{Op: filter.UMin, K: pickK(), Attr: attr, Input: genExprDiff(r, depth-1)}
	case 4:
		return &Unary{Op: filter.UMax, K: pickK(), Attr: attr, Input: genExprDiff(r, depth-1)}
	case 5:
		return &Unary{Op: filter.URoundRobin, Attr: attr, Input: genExprDiff(r, depth-1)}
	case 6:
		return &Unary{Op: filter.URandom, K: pickK(), Input: genExprDiff(r, depth-1)}
	default:
		l, rr := genExprDiff(r, depth-1), genExprDiff(r, depth-1)
		switch r.Intn(3) {
		case 0:
			return &Binary{Op: filter.BUnion, Left: l, Right: rr}
		case 1:
			return &Binary{Op: filter.BIntersect, Left: l, Right: rr}
		default:
			return &Binary{Op: filter.BDiff, Left: l, Right: rr}
		}
	}
}

// genPolicyDiff generates a whole random policy: 1–2 outputs, sometimes a
// shared subexpression (a DAG, as let produces), sometimes a fallback edge.
//
// Every eighth trial wraps output 0 in a predicate or min fed by a stateful
// unit — filter(random(e), a < v), min(rr(e, b), a): steps that read the
// table's sorted dimensions like any content-static step but must still run
// per packet, the boundary the interpreter's two phases are drawn along.
func genPolicyDiff(r *rand.Rand, trial int) *Policy {
	nOut := 1 + r.Intn(2)
	var shared Expr
	if r.Intn(3) == 0 {
		shared = genExprDiff(r, 2)
	}
	p := &Policy{Name: "gen"}
	for i := 0; i < nOut; i++ {
		e := genExprDiff(r, 3)
		if i == 0 && trial%8 == 0 {
			if trial%16 == 0 {
				e = &Unary{Op: filter.UPredicate, Attr: "a", Rel: filter.RelOp(r.Intn(6)), Val: int64(r.Intn(100)),
					Input: &Unary{Op: filter.URandom, K: 3, Input: e}}
			} else {
				e = &Unary{Op: filter.UMin, Attr: "a",
					Input: &Unary{Op: filter.URoundRobin, Attr: "b", Input: e}}
			}
		}
		if shared != nil && r.Intn(2) == 0 {
			// Wrap the shared node so both outputs reference one pointer.
			e = &Binary{Op: filter.BUnion, Left: e, Right: shared}
		}
		p.Outputs = append(p.Outputs, Output{Name: []string{"x", "y"}[i], Expr: e})
	}
	p.FallbackOf = make([]int, nOut)
	for i := range p.FallbackOf {
		p.FallbackOf[i] = -1
	}
	if nOut == 2 && r.Intn(2) == 0 {
		p.FallbackOf[0] = 1
	}
	return p
}

// phaseCensus reports whether the expression holds a table-reading filter
// step (predicate, min, max) downstream of a stateful unit, and whether it
// holds one that no stateful unit feeds. The harness must exercise both: the
// first kind runs per packet, the second once per table version.
func phaseCensus(e Expr) (dynFilter, staticFilter bool) {
	var walk func(e Expr) (stateful bool)
	walk = func(e Expr) bool {
		switch n := e.(type) {
		case *Unary:
			fed := walk(n.Input)
			if n.Op == filter.UPredicate || n.Op == filter.UMin || n.Op == filter.UMax {
				if fed {
					dynFilter = true
				} else {
					staticFilter = true
				}
			}
			return fed || n.Op.Stateful()
		case *Binary:
			l, r := walk(n.Left), walk(n.Right)
			return l || r
		}
		return false
	}
	walk(e)
	return dynFilter, staticFilter
}

// mutateDiff applies one randomly chosen probe write to the table, drawn
// from every write operation the SMBM offers — each must move the version
// the interpreter's static buffers are keyed on — and returns the
// operation's name. An operation that does not apply to the table's current
// contents (nothing to delete, no free id) degrades to an Upsert.
func mutateDiff(t *testing.T, r *rand.Rand, table *smbm.SMBM) string {
	t.Helper()
	capN := table.Capacity()
	randVals := func() []int64 {
		return []int64{int64(r.Intn(100)), int64(r.Intn(100)), int64(r.Intn(100))}
	}
	// present: a random member; absent: a random free id (-1 when none).
	present, absent := -1, -1
	for off, start := 0, r.Intn(capN); off < capN; off++ {
		id := (start + off) % capN
		if table.Contains(id) {
			if present < 0 {
				present = id
			}
		} else if absent < 0 {
			absent = id
		}
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	op := r.Intn(7)
	switch {
	case op == 0 && absent >= 0:
		must(table.Add(absent, randVals()))
		return "add"
	case op == 1 && table.Size() > 1:
		must(table.Delete(present))
		return "delete"
	case op == 2 && present >= 0:
		must(table.Update(present, randVals()))
		return "update"
	case op == 3 && table.Size() > 1:
		// Two distinct members, back to back.
		second := present
		for id := (present + 1) % capN; id != present; id = (id + 1) % capN {
			if table.Contains(id) {
				second = id
				break
			}
		}
		must(table.Update(present, randVals()))
		must(table.Update(second, randVals()))
		return "update-pair"
	case op == 4 && present >= 0:
		// Same id, same values, two writes: membership and metrics end where
		// they began, but the entry re-enters every dimension after its
		// equals (FIFO tie-break), so min/max may legitimately move.
		vals := make([]int64, table.NumMetrics())
		table.MetricsInto(present, vals)
		must(table.Delete(present))
		must(table.Add(present, vals))
		return "delete-readd"
	case op == 5 && present >= 0:
		vals := make([]int64, table.NumMetrics())
		table.MetricsInto(present, vals)
		must(table.Update(present, vals))
		return "update-identical"
	default:
		must(table.Upsert(r.Intn(capN), randVals()))
		return "upsert"
	}
}

// isCapacityErr reports whether a compile error is a legitimate "policy does
// not fit this design point" rejection, the only kind the differential test
// may skip. Anything else (validation failure, internal error) is a bug.
func isCapacityErr(err error) bool {
	msg := err.Error()
	for _, s := range []string{
		"chain length", "line slots", "fan-out", "out of cells",
		"unplaced", "not available at final stage", "exceed pipeline width",
	} {
		if strings.Contains(msg, s) {
			return true
		}
	}
	return false
}

// TestDifferentialInterpVsCompiled is the randomized differential harness:
// across many trials it generates a random policy AST and a random table,
// compiles the policy onto a generously sized pipeline, and asserts that the
// compiled pipeline and the direct AST interpreter produce bit-for-bit
// identical output tables packet after packet, with table mutations (probe
// writes) interleaved. Stochastic operators match because interpreter and
// compiler share AssignSeeds, so every random/rr unit starts from the same
// LFSR seed on both sides.
//
// The pipeline evaluates every unit on every packet; the interpreter
// evaluates content-static steps once per table version. So each table
// version carries a random 1–4 packets — the first refreshes the
// interpreter's static buffers, the rest reuse them while its stateful
// units keep advancing — and versions are separated by one write drawn from
// every SMBM write operation (mutateDiff).
func TestDifferentialInterpVsCompiled(t *testing.T) {
	trials := 1000
	if testing.Short() {
		trials = 150
	}
	params := pipeline.Params{Inputs: 8, Fanout: 2, Stages: 8, ChainLen: 4}
	const (
		capN     = 16
		versions = 10
	)

	compiled, skipped := 0, 0
	dynFilters, staticFilters := 0, 0
	ops := map[string]int{}
	for trial := 0; trial < trials; trial++ {
		// Two identically seeded generators: disjoint AST copies for the
		// two evaluators, plus one stream for tables and mutations.
		pInterp := genPolicyDiff(rand.New(rand.NewSource(int64(trial))), trial)
		pCompiled := genPolicyDiff(rand.New(rand.NewSource(int64(trial))), trial)
		r := rand.New(rand.NewSource(int64(trial) * 7919))

		if err := pInterp.Validate(diffSchema); err != nil {
			t.Fatalf("trial %d: generated invalid policy: %v\n%s", trial, err, pInterp.Outputs[0].Expr)
		}

		table := smbm.New(capN, len(diffSchema.Attrs))
		for id := 0; id < capN; id++ {
			if r.Intn(4) > 0 {
				vals := []int64{int64(r.Intn(100)), int64(r.Intn(100)), int64(r.Intn(100))}
				if err := table.Add(id, vals); err != nil {
					t.Fatal(err)
				}
			}
		}

		pl, cc, err := NewPipeline(table, diffSchema, pCompiled, params)
		if err != nil {
			if !isCapacityErr(err) {
				t.Fatalf("trial %d: non-capacity compile error: %v", trial, err)
			}
			skipped++
			continue
		}
		compiled++
		for _, o := range pInterp.Outputs {
			d, s := phaseCensus(o.Expr)
			if d {
				dynFilters++
			}
			if s {
				staticFilters++
			}
		}

		it, err := NewInterp(table, diffSchema, pInterp)
		if err != nil {
			t.Fatalf("trial %d: interp: %v", trial, err)
		}

		pkt, lastOp := 0, "initial"
		for ver := 0; ver < versions; ver++ {
			for n := 1 + r.Intn(4); n > 0; n-- {
				want := it.Exec()
				got, err := cc.Run(pl)
				if err != nil {
					t.Fatalf("trial %d packet %d: run: %v", trial, pkt, err)
				}
				for i := range want {
					if !got[i].Equal(want[i]) {
						t.Fatalf("trial %d packet %d (version %d, after %s) output %d:\n  policy: %s\n  compiled %s\n  interp   %s",
							trial, pkt, ver, lastOp, i, pInterp.Outputs[i].Expr, got[i], want[i])
					}
				}
				// Fallback resolution must agree too (post-filter MUX, §4.2.3).
				for i := range want {
					if !Resolve(pCompiled, got, i).Equal(Resolve(pInterp, want, i)) {
						t.Fatalf("trial %d packet %d output %d: fallback resolution diverged", trial, pkt, i)
					}
				}
				pkt++
			}
			// Mutate the table between versions, as probe packets would.
			lastOp = mutateDiff(t, r, table)
			ops[lastOp]++
		}
	}

	t.Logf("differential: %d/%d policies compiled (%d skipped for capacity); writes by op: %v", compiled, compiled+skipped, skipped, ops)
	// The generator is tuned so most policies fit the generous design point;
	// if compilation success collapses, the test is no longer testing much.
	if compiled < (compiled+skipped)/2 {
		t.Fatalf("only %d of %d generated policies compiled — generator or compiler regressed", compiled, compiled+skipped)
	}
	// Both phases must be under test: filters fed by a stateful unit (run per
	// packet) and filters fed by none (run per version).
	if dynFilters < compiled/16 || staticFilters < compiled/4 {
		t.Fatalf("phase coverage collapsed: %d outputs with a stateful-fed filter, %d with a static one, over %d policies",
			dynFilters, staticFilters, compiled)
	}
	for _, op := range []string{"add", "delete", "update", "update-pair", "delete-readd", "update-identical", "upsert"} {
		if ops[op] == 0 {
			t.Fatalf("write op %q never exercised: %v", op, ops)
		}
	}
}
