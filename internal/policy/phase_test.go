package policy

import (
	"strings"
	"testing"

	"repro/internal/filter"
	"repro/internal/telemetry"
)

// phasePolicy mixes both evaluation phases in one program: a fused
// three-predicate intersect, a min and a two-input union that depend on the
// table alone, and three stateful chains — a random pick over the static
// set, a round-robin over the table, and a predicate fed by a random unit,
// which reads the same sorted dimension a static predicate does but must
// still run per packet.
const phasePolicy = `
let ok = intersect(filter(table, cpu < 70), filter(table, mem > 1), filter(table, bw > 2))
let best = min(ok, cpu)
out wide = union(best, filter(table, cpu > 80))
out pick = random(ok)
out turn = rr(table, mem)
out narrowed = filter(sample(table, 2), cpu < 70)
`

// TestInterpRunsStaticStepsOncePerVersion counts executed work with the
// units' cycle counters: over several Execs at one table version a unit no
// stateful operator feeds runs once, a stateful unit and everything
// downstream of one runs every time; one write later, the static units run
// exactly once more.
func TestInterpRunsStaticStepsOncePerVersion(t *testing.T) {
	table, sch := lbTable(t)
	it, err := NewInterp(table, sch, MustParse(phasePolicy))
	if err != nil {
		t.Fatal(err)
	}
	// Classify by source text, independently of the interpreter's own lists:
	// a step is per-packet iff its expression mentions a stateful operator.
	perPacket := make([]bool, len(it.prog))
	nStatic, nDyn := 0, 0
	for i, label := range it.StepLabels() {
		perPacket[i] = strings.Contains(label, "random") || strings.Contains(label, "rr(")
		if it.prog[i].unit != nil || it.prog[i].bin != nil {
			if perPacket[i] {
				nDyn++
			} else {
				nStatic++
			}
		}
	}
	if nStatic < 5 || nDyn < 4 {
		t.Fatalf("policy lost its shape: %d static and %d per-packet units in %q", nStatic, nDyn, it.StepLabels())
	}

	const n = 5
	check := func(when string, execs, versions uint64) {
		t.Helper()
		for i := range it.prog {
			// got: the unit's own cumulative cycle count; per: what one
			// execution of it charges. Table and fused steps own no unit.
			var got, per uint64
			switch st := &it.prog[i]; st.kind {
			case stepUnary, stepSelect:
				got, per = st.unit.Cycles(), uint64(st.k)*filter.UFPUCycles // each active chain unit ticks
			case stepBinary:
				got, per = st.bin.Cycles(), filter.BFPUCycles
			default:
				continue
			}
			runs := versions
			if perPacket[i] {
				runs = execs
			}
			if got != runs*per {
				t.Errorf("%s: step %d %q charged %d cycles = %d runs, want %d runs",
					when, i, it.labels[i], got, got/per, runs)
			}
		}
	}
	for i := 0; i < n; i++ {
		it.Exec()
	}
	check("one version", n, 1)
	if err := table.Update(3, []int64{15, 5, 5}); err != nil {
		t.Fatal(err)
	}
	it.Exec()
	check("after one write", n+1, 2)
	for i := 0; i < n; i++ {
		it.Exec()
	}
	check("second version", 2*n+1, 2)
}

// TestInterpTraceOnReusedBuffers: a sampled execution that reuses the
// version's static buffers reports the same per-step candidate counts and
// cycles as the first execution of a freshly built interpreter over the same
// table, and chain telemetry charges every step for every execution.
func TestInterpTraceOnReusedBuffers(t *testing.T) {
	table, sch := lbTable(t)
	pol := MustParse(phasePolicy)
	it, err := NewInterp(table, sch, pol)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	cs := telemetry.NewChainStats(reg, "phase", it.StepLabels(), 1)[0]
	it.AttachTelemetry(cs)
	const n = 4
	for i := 0; i < n-1; i++ {
		it.Exec()
	}
	var warm, cold telemetry.Trace
	it.Decide(&warm, 0) // the n-th execution at this version: static steps skipped
	it.FlushStats(n)

	fresh, err := NewInterp(table, sch, MustParse(phasePolicy))
	if err != nil {
		t.Fatal(err)
	}
	fresh.Decide(&cold, 0)

	if warm.NumStages != cold.NumStages || int(warm.NumStages) != it.Steps() {
		t.Fatalf("stages: reused %d, fresh %d, steps %d", warm.NumStages, cold.NumStages, it.Steps())
	}
	for i := 0; i < int(warm.NumStages); i++ {
		w, c := warm.Stages[i], cold.Stages[i]
		// The policy's one pop-dynamic step — the predicate over two random
		// picks — may count differently on two LFSR draws; it is held to the
		// live buffer only. Every other popcount is version-static, so the
		// reused buffers and the fresh interpreter must agree.
		if w.Label != c.Label || w.Cycles != c.Cycles {
			t.Errorf("stage %d: reused %+v, fresh %+v", i, w, c)
		}
		if !it.dynPop[i] && w.Candidates != c.Candidates {
			t.Errorf("stage %d %q: reused buffer reports %d candidates, fresh interpreter %d",
				i, w.Label, w.Candidates, c.Candidates)
		}
		if int(w.Candidates) != it.vals[i].Count() {
			t.Errorf("stage %d %q: trace says %d candidates, buffer holds %d", i, w.Label, w.Candidates, it.vals[i].Count())
		}
		if got := cs.Invocations[i].Value(); got != n {
			t.Errorf("step %d %q: %d invocations published, want %d", i, w.Label, got, n)
		}
		if !it.dynPop[i] {
			if got, want := cs.Candidates[i].Value(), uint64(n)*uint64(c.Candidates); got != want {
				t.Errorf("step %d %q: %d candidates published, want %d × %d", i, w.Label, got, n, c.Candidates)
			}
		}
	}
}

// TestInterpHeldOutputIsStable pins the output-buffer contract from the
// reader's side: resolving fallbacks on, and listing the ids of, an output
// held across calls reads the interpreter's buffers without writing them, so
// the next Exec at the same version — which does not recompute a
// content-static output — still returns the right table.
func TestInterpHeldOutputIsStable(t *testing.T) {
	table, sch := lbTable(t)
	pol := MustParse(`
out primary = filter(table, cpu > 95)
out backup  = filter(table, cpu < 70)
fallback primary -> backup
`)
	it, err := NewInterp(table, sch, pol)
	if err != nil {
		t.Fatal(err)
	}
	held := it.Exec()
	want := []int{0, 2, 3, 4, 6, 7} // cpu < 70
	for round := 0; round < 3; round++ {
		res := Resolve(pol, held, 0) // primary is empty: falls back
		ids := res.IDs()
		if len(ids) != len(want) {
			t.Fatalf("round %d: resolved %v, want %v", round, ids, want)
		}
		for i := range ids {
			if ids[i] != want[i] {
				t.Fatalf("round %d: resolved %v, want %v", round, ids, want)
			}
			ids[i] = -1 // the id list is the caller's copy, not a view
		}
		held = it.Exec()
		if held[0].Any() {
			t.Fatalf("round %d: primary = %s, want empty", round, held[0])
		}
	}
	// A write invalidates the view: the next Exec recomputes it.
	if err := table.Update(0, []int64{99, 4, 5}); err != nil {
		t.Fatal(err)
	}
	outs := it.Exec()
	if got := Resolve(pol, outs, 0).IDs(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("after write: resolved %v, want [0]", got)
	}
}
