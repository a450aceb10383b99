package policy

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/filter"
	"repro/internal/smbm"
	"repro/internal/telemetry"
)

// chainPolicies are three-output policies whose leading outputs are usually
// empty, so that fallback chains and cycles of length three are walked to
// the end: the generated corpus has at most two outputs.
var chainPolicies = []string{
	"out x = random(filter(table, a > 97))\nout y = rr(filter(table, b > 90), c)\nout z = min(table, a)",
	"out x = max(filter(table, a > 98), b)\nout y = random(filter(table, b > 98))\nout z = filter(table, c > 98)",
	"out x = rr(diff(table, table), a)\nout y = sample(filter(table, a < 50), 2)\nout z = random(table)",
}

// fuzzSchema names every attribute the parseable FuzzParse seeds mention.
var fuzzSchema = Schema{Attrs: []string{"cpu", "mem", "qprev", "queue", "weight", "util", "a"}}

// TestIDPathMatchesVectorPath is the differential for the id-carrying
// evaluation: over the generated differential corpus, the parser's fuzz
// seeds and the chain policies above — each under its own fallback table, a
// full chain and a full cycle — two identically seeded interpreters decide
// 64 packets with a table write after almost every one. One is read through
// Decide (ids), the other through Exec + Resolve + FirstSet (vectors). Every
// packet must agree on the id and on every step buffer; every selection
// step's patched one-hot buffer must be bit-equal to what a fresh UFPU of the
// same configuration writes with ExecInto from the same input, with the same
// cycle count; and the published chain statistics must equal the per-packet
// popcounts summed.
func TestIDPathMatchesVectorPath(t *testing.T) {
	trials := 300
	if testing.Short() {
		trials = 60
	}
	type entry struct {
		name   string
		schema Schema
		pol    *Policy
	}
	var corpus []entry
	for trial := 0; trial < trials; trial++ {
		corpus = append(corpus, entry{fmt.Sprintf("gen-%d", trial), diffSchema,
			genPolicyDiff(rand.New(rand.NewSource(int64(trial))), trial)})
	}
	for i, src := range fuzzSeeds {
		if p, err := Parse(src); err == nil && p.Validate(fuzzSchema) == nil {
			corpus = append(corpus, entry{fmt.Sprintf("fuzz-%d", i), fuzzSchema, p})
		}
	}
	for i, src := range chainPolicies {
		corpus = append(corpus, entry{fmt.Sprintf("chain-%d", i), diffSchema, MustParse(src)})
	}

	ops := map[string]int{}
	selSteps, fallbacksTaken := 0, 0
	for ci, e := range corpus {
		n := len(e.pol.Outputs)
		tables := [][]int{e.pol.FallbackOf}
		if n > 1 {
			chain, cycle := make([]int, n), make([]int, n)
			for i := range chain {
				chain[i], cycle[i] = i+1, (i+1)%n
			}
			chain[n-1] = -1
			tables = append(tables, chain, cycle)
		}
		for vi, fb := range tables {
			p := *e.pol
			p.FallbackOf = fb
			s, f := idPathTrial(t, fmt.Sprintf("%s/fallback-%d", e.name, vi), e.schema, &p, int64(ci*3+vi), ops)
			selSteps += s
			fallbacksTaken += f
		}
	}
	t.Logf("id path: %d policies, %d selection steps, %d fallback hops; writes: %v", len(corpus), selSteps, fallbacksTaken, ops)
	for _, op := range []string{"add", "delete", "update", "upsert", "delete-picked", "empty-table"} {
		if ops[op] == 0 {
			t.Errorf("write %q never exercised: %v", op, ops)
		}
	}
	if selSteps < len(corpus) || fallbacksTaken == 0 {
		t.Errorf("coverage collapsed: %d selection steps over %d policies, %d fallback hops", selSteps, len(corpus), fallbacksTaken)
	}
}

// idPathTrial runs one policy for 64 packets and returns how many selection
// steps it had and how many decisions left their requested output.
func idPathTrial(t *testing.T, name string, schema Schema, p *Policy, seed int64, ops map[string]int) (selSteps, fallbacks int) {
	t.Helper()
	const (
		capN    = 16
		packets = 64
	)
	r := rand.New(rand.NewSource(seed*7919 + 1))
	randVals := func() []int64 {
		vals := make([]int64, len(schema.Attrs))
		for i := range vals {
			vals[i] = int64(r.Intn(100))
		}
		return vals
	}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	table := smbm.New(capN, len(schema.Attrs))
	for id := 0; id < capN; id++ {
		if r.Intn(4) > 0 {
			must(table.Add(id, randVals()))
		}
	}
	ids, err := NewInterp(table, schema, p)
	must(err)
	vecs, err := NewInterp(table, schema, p)
	must(err)
	reg := telemetry.NewRegistry()
	idStats := telemetry.NewChainStats(reg, "ids", ids.StepLabels(), 1)[0]
	vecStats := telemetry.NewChainStats(reg, "vecs", vecs.StepLabels(), 1)[0]
	ids.AttachTelemetry(idStats)
	vecs.AttachTelemetry(vecStats)

	// One fresh reference unit and output register per selection step.
	refs := make([]*filter.UFPU, len(ids.prog))
	refOut := make([]*bitvec.Vector, len(ids.prog))
	for i := range ids.prog {
		if st := &ids.prog[i]; st.kind == stepSelect {
			refs[i], err = filter.NewUFPU(table, st.sel.Config())
			must(err)
			refOut[i] = bitvec.New(capN)
			selSteps++
		}
	}
	perPacket := make([]bool, len(ids.prog))
	for _, i := range ids.dynIdx {
		perPacket[i] = true
	}
	wantCand := make([]uint64, len(ids.prog))

	for pk := 0; pk < packets; pk++ {
		out := pk % len(p.Outputs)
		before := make([]uint64, len(ids.prog))
		for i, ref := range refs {
			if ref != nil {
				before[i] = ids.prog[i].sel.Cycles()
			}
		}
		got := ids.Decide(out)
		if want := Resolve(p, vecs.Exec(), out).FirstSet(); got != want {
			t.Fatalf("%s packet %d output %d: Decide = %d, Resolve(Exec).FirstSet = %d\n  policy: %s", name, pk, out, got, want, p.Outputs[out].Expr)
		}
		if got >= 0 && !vecs.outs[out].Get(got) {
			fallbacks++
		}
		for i := range ids.prog {
			if !ids.vals[i].Equal(vecs.vals[i]) {
				t.Fatalf("%s packet %d step %d %q: buffers differ: %s vs %s", name, pk, i, ids.labels[i], ids.vals[i], vecs.vals[i])
			}
			wantCand[i] += uint64(ids.vals[i].Count())
			ref := refs[i]
			if ref == nil {
				continue
			}
			st := &ids.prog[i]
			ran := st.sel.Cycles() - before[i]
			if ran != 0 {
				ref.ExecInto(refOut[i], ids.vals[st.a])
			}
			if perPacket[i] && ran != filter.UFPUCycles {
				t.Fatalf("%s packet %d step %d %q: per-packet unit charged %d cycles, want %d", name, pk, i, ids.labels[i], ran, filter.UFPUCycles)
			}
			if !ids.vals[i].Equal(refOut[i]) || ids.prog[i].pick != refOut[i].FirstSet() {
				t.Fatalf("%s packet %d step %d %q: buffer %s pick %d, fresh ExecInto wrote %s", name, pk, i, ids.labels[i], ids.vals[i], ids.prog[i].pick, refOut[i])
			}
			if a, b, c := st.sel.Cycles(), vecs.prog[i].sel.Cycles(), ref.Cycles(); a != b || a != c {
				t.Fatalf("%s packet %d step %d %q: cycles ids %d, vecs %d, reference %d", name, pk, i, ids.labels[i], a, b, c)
			}
		}
		ids.FlushStats(1)
		vecs.FlushStats(1)

		// One write after almost every packet, each kind in turn; packet 24
		// empties the table and the writes that follow refill it.
		present, absent := -1, -1
		for off, start := 0, r.Intn(capN); off < capN; off++ {
			if id := (start + off) % capN; table.Contains(id) {
				present = id
			} else {
				absent = id
			}
		}
		switch step := pk % 8; {
		case pk == 24:
			for id := 0; id < capN; id++ {
				if table.Contains(id) {
					must(table.Delete(id))
				}
			}
			ops["empty-table"]++
		case step == 0 && got >= 0:
			must(table.Delete(got))
			ops["delete-picked"]++
		case step == 1 && absent >= 0:
			must(table.Add(absent, randVals()))
			ops["add"]++
		case step == 2 && present >= 0:
			must(table.Update(present, randVals()))
			ops["update"]++
		case step == 3 && present >= 0:
			must(table.Delete(present))
			ops["delete"]++
		case step == 4 || step == 6:
			// No write: the next packet reuses this version's static buffers.
		default:
			must(table.Upsert(r.Intn(capN), randVals()))
			ops["upsert"]++
		}
	}

	for i := range ids.prog {
		if a, b := idStats.Invocations[i].Value(), vecStats.Invocations[i].Value(); a != packets || b != packets {
			t.Fatalf("%s step %d %q: invocations ids %d, vecs %d, want %d", name, i, ids.labels[i], a, b, packets)
		}
		if a, b := idStats.Candidates[i].Value(), vecStats.Candidates[i].Value(); a != wantCand[i] || b != wantCand[i] {
			t.Fatalf("%s step %d %q: candidates ids %d, vecs %d, want %d", name, i, ids.labels[i], a, b, wantCand[i])
		}
	}
	return selSteps, fallbacks
}
