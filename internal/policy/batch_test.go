package policy

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/smbm"
	"repro/internal/telemetry"
)

// tailPolicies are programs with tail steps: steps that read a stateful
// selection's output and so run per packet after the front steps have drawn
// for the whole batch. The first is a predicate over a random; the second is
// DRILL's min over a two-sample, beside a plain front step; the third feeds a
// front step and a round-robin into a shared tail.
var tailPolicies = []string{
	"out x = filter(random(filter(table, a > 20)), b < 60)\nout y = random(table)\nfallback x -> y",
	"out x = min(sample(table, 2), a)\nout y = random(filter(table, c > 50))\nfallback y -> x",
	"let r = random(table)\nout x = max(union(r, rr(table, b)), c)\nout y = filter(r, a < 50)",
}

type batchEntry struct {
	name   string
	schema Schema
	pol    *Policy
}

// batchCorpus is TestIDPathMatchesVectorPath's corpus — the generated
// differential policies, the parseable fuzz seeds and the chain policies —
// plus tailPolicies, each under its own fallback table and, with more than
// one output, a full chain and a full cycle.
func batchCorpus(trials int) []batchEntry {
	var base []batchEntry
	for trial := 0; trial < trials; trial++ {
		base = append(base, batchEntry{fmt.Sprintf("gen-%d", trial), diffSchema,
			genPolicyDiff(rand.New(rand.NewSource(int64(trial))), trial)})
	}
	for i, src := range fuzzSeeds {
		if p, err := Parse(src); err == nil && p.Validate(fuzzSchema) == nil {
			base = append(base, batchEntry{fmt.Sprintf("fuzz-%d", i), fuzzSchema, p})
		}
	}
	for i, src := range chainPolicies {
		base = append(base, batchEntry{fmt.Sprintf("chain-%d", i), diffSchema, MustParse(src)})
	}
	for i, src := range tailPolicies {
		base = append(base, batchEntry{fmt.Sprintf("tail-%d", i), diffSchema, MustParse(src)})
	}
	var corpus []batchEntry
	for _, e := range base {
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
			corpus = append(corpus, batchEntry{fmt.Sprintf("%s/fallback-%d", e.name, vi), e.schema, &p})
		}
	}
	return corpus
}

// TestDecideBatchMatchesDecide is the differential for step-major batches:
// over batchCorpus, at a one-word and a three-word table, a batched
// interpreter decides random batches of 1–300 packets with random output
// indices — some naming no output, which must fail without a draw — while an
// identically seeded twin decides the same packets one Decide at a time,
// skipping the failed ones. Between batches a random Add, Delete, Update or
// Upsert hits the shared table. After every batch the ids, every step
// buffer, the Exec views, every unit's cycle count and the published chain
// statistics must agree.
func TestDecideBatchMatchesDecide(t *testing.T) {
	trials := 300
	if testing.Short() {
		trials = 60
	}
	corpus := batchCorpus(trials)
	var cov batchCoverage
	for _, capN := range []int{16, 130} {
		for ci, e := range corpus {
			batchTrial(t, e.name, e.schema, e.pol, int64(ci), 6, nil, capN, &cov)
		}
	}
	t.Logf("batch path: %d programs, %+v", len(corpus), cov)
	if cov.fronts == 0 || cov.tails == 0 || cov.failed == 0 || cov.skipped == 0 || cov.drawn == 0 || cov.fellBack == 0 || cov.single == 0 {
		t.Errorf("coverage collapsed: %+v", cov)
	}
}

// batchCoverage counts what batchTrial runs exercised: front and tail steps,
// packets failed for naming no output and, over tail-free batches of more
// than one packet, the front steps advanced by Skip and those drawn for
// every packet, and the batches in which some packet's output had emptied
// so a fallback's column answered. single counts the tail-free batches in
// which every packet named one valid output, which resolve by a column copy.
type batchCoverage struct {
	fronts, tails, failed    int
	skipped, drawn, fellBack int
	single                   int
}

// FuzzDecideBatch drives batchTrial's oracle with fuzzer-chosen programs,
// seeds and batch sizes; the seed's parity picks a one-word or a three-word
// table.
func FuzzDecideBatch(f *testing.F) {
	corpus := batchCorpus(40)
	f.Add(uint16(0), int64(1), []byte{1, 255, 17})
	f.Add(uint16(len(corpus)-1), int64(7), []byte{0, 3, 200, 44})
	f.Add(uint16(len(corpus)-4), int64(3), []byte{9})
	f.Fuzz(func(t *testing.T, pick uint16, seed int64, sizes []byte) {
		if len(sizes) == 0 || len(sizes) > 16 {
			return
		}
		e := corpus[int(pick)%len(corpus)]
		batchTrial(t, e.name, e.schema, e.pol, seed, len(sizes), sizes, []int{16, 130}[seed&1], &batchCoverage{})
	})
}

// batchTrial runs rounds batches of policy p through a batched interpreter
// and a one-at-a-time twin over a capN-slot table and fails t at the first
// divergence. Batch sizes come from sizes when given (1 + sizes[i] mod 300),
// else from the seed. It adds what the rounds covered to cov.
func batchTrial(t *testing.T, name string, schema Schema, p *Policy, seed int64, rounds int, sizes []byte, capN int, cov *batchCoverage) {
	t.Helper()
	r := rand.New(rand.NewSource(seed*7919 + 3))
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
	bat, err := NewInterp(table, schema, p)
	must(err)
	one, err := NewInterp(table, schema, p)
	must(err)
	reg := telemetry.NewRegistry()
	batStats := telemetry.NewChainStats(reg, "batch", bat.StepLabels(), 1)[0]
	oneStats := telemetry.NewChainStats(reg, "one", one.StepLabels(), 1)[0]
	bat.AttachTelemetry(batStats)
	one.AttachTelemetry(oneStats)
	nOut := len(p.Outputs)

	for round := 0; round < rounds; round++ {
		n := 1 + r.Intn(300)
		if sizes != nil {
			n = 1 + int(sizes[round])%300
		}
		outs := bat.Batch(n)
		want := make([]int, n)
		bad := 0
		// Every other round the valid packets all name one output, so the
		// front steps the others end at go unread and advance by Skip.
		focus := -1
		if round%2 == 1 {
			focus = r.Intn(nOut)
		}
		for j := range outs {
			switch v := r.Intn(16); {
			case v == 0:
				outs[j] = -1 - r.Intn(3)
			case v == 1:
				outs[j] = nOut + r.Intn(3)
			case focus >= 0:
				outs[j] = focus
			default:
				outs[j] = r.Intn(nOut)
			}
			want[j] = -1
			if outs[j] < 0 || outs[j] >= nOut {
				bad++
				continue
			}
			want[j] = one.Decide(outs[j])
			one.FlushStats(1)
		}
		asked := append([]int(nil), outs...)
		if nf := bat.DecideBatch(outs); nf != bad {
			t.Fatalf("%s round %d: DecideBatch failed %d packets, want %d", name, round, nf, bad)
		}
		for j := range want {
			if outs[j] != want[j] {
				t.Fatalf("%s round %d packet %d/%d output %d: batch id %d, one at a time %d", name, round, j, n, asked[j], outs[j], want[j])
			}
		}
		bat.FlushStats(uint64(n - bad))
		cov.failed += bad
		if bat.fin != nil && n-bad > 1 {
			cov.countFinals(bat, asked)
		}
		if bat.fin != nil && bad == 0 && slices.Min(asked) == slices.Max(asked) {
			cov.single++
		}
		compareInterps(t, fmt.Sprintf("%s round %d (batch of %d)", name, round, n), bat, one, batStats, oneStats)
		bv, ov := bat.Exec(), one.Exec()
		for i := range bv {
			if !bv[i].Equal(ov[i]) {
				t.Fatalf("%s round %d: Exec output %d differs: %s vs %s", name, round, i, bv[i], ov[i])
			}
		}
		bat.FlushStats(1)
		one.FlushStats(1)
		compareInterps(t, fmt.Sprintf("%s round %d Exec", name, round), bat, one, batStats, oneStats)

		// One write between batches, each kind in random turn.
		present, absent := -1, -1
		for off, start := 0, r.Intn(capN); off < capN; off++ {
			if id := (start + off) % capN; table.Contains(id) {
				present = id
			} else {
				absent = id
			}
		}
		switch w := r.Intn(5); {
		case w == 0 && absent >= 0:
			must(table.Add(absent, randVals()))
		case w == 1 && present >= 0:
			must(table.Delete(present))
		case w == 2 && present >= 0:
			must(table.Update(present, randVals()))
		case w == 3:
			// No write: the next batch reuses this version's static buffers.
		default:
			must(table.Upsert(r.Intn(capN), randVals()))
		}
	}
	cov.fronts += bat.nFront
	cov.tails += len(bat.dynIdx) - bat.nFront
}

// countFinals counts, for a tail-free batch just decided on outputs asked,
// the front steps that no asked output's chain ends at (advanced by Skip)
// and those it does (drawn for every packet), and the batch once if an asked
// output's chain ended at another output's column.
func (c *batchCoverage) countFinals(it *Interp, asked []int) {
	fellBack := false
	for _, i := range it.dynIdx[:it.nFront] {
		read := false
		for _, out := range asked {
			if out < 0 || out >= len(it.fin) || it.fin[out].step < 0 {
				continue
			}
			read = read || it.fin[out].step == i
			fellBack = fellBack || it.fin[out].step != it.outIdx[out]
		}
		if read {
			c.drawn++
		} else {
			c.skipped++
		}
	}
	if fellBack {
		c.fellBack++
	}
}

// compareInterps fails t unless two interpreters of one program hold the
// same step buffers and picks, their units the same cycle counts, and their
// chain statistics the same published counts.
func compareInterps(t *testing.T, when string, a, b *Interp, as, bs *telemetry.ChainStats) {
	t.Helper()
	for i := range a.prog {
		if !a.vals[i].Equal(b.vals[i]) || a.prog[i].pick != b.prog[i].pick {
			t.Fatalf("%s: step %d %q: buffers %s / %s, picks %d / %d", when, i, a.labels[i], a.vals[i], b.vals[i], a.prog[i].pick, b.prog[i].pick)
		}
		var ca, cb uint64
		switch sa, sb := &a.prog[i], &b.prog[i]; {
		case sa.unit != nil:
			ca, cb = sa.unit.Cycles(), sb.unit.Cycles()
		case sa.bin != nil:
			ca, cb = sa.bin.Cycles(), sb.bin.Cycles()
		}
		if ca != cb {
			t.Fatalf("%s: step %d %q: cycles %d / %d", when, i, a.labels[i], ca, cb)
		}
		if x, y := as.Invocations[i].Value(), bs.Invocations[i].Value(); x != y {
			t.Fatalf("%s: step %d %q: invocations %d / %d", when, i, a.labels[i], x, y)
		}
		if x, y := as.Candidates[i].Value(), bs.Candidates[i].Value(); x != y {
			t.Fatalf("%s: step %d %q: candidates %d / %d", when, i, a.labels[i], x, y)
		}
	}
}
