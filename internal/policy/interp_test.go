package policy

import (
	"testing"

	"repro/internal/bitvec"
	"repro/internal/filter"
	"repro/internal/smbm"
)

// lbTable builds the running example: 8 servers with cpu/mem/bw metrics.
func lbTable(t testing.TB) (*smbm.SMBM, Schema) {
	t.Helper()
	s := smbm.New(8, 3)
	rows := [][3]int64{
		{50, 4, 5}, {90, 8, 9}, {30, 0, 3}, {60, 2, 1},
		{20, 6, 4}, {75, 3, 8}, {65, 2, 7}, {10, 9, 2},
	}
	for id, r := range rows {
		if err := s.Add(id, []int64{r[0], r[1], r[2]}); err != nil {
			t.Fatal(err)
		}
	}
	return s, Schema{Attrs: []string{"cpu", "mem", "bw"}}
}

func TestSchemaDim(t *testing.T) {
	sch := Schema{Attrs: []string{"a", "b"}}
	if d, err := sch.Dim("b"); err != nil || d != 1 {
		t.Fatalf("Dim(b) = %d, %v", d, err)
	}
	if _, err := sch.Dim("zzz"); err == nil {
		t.Fatal("unknown attr should fail")
	}
}

func TestValidateCatchesErrors(t *testing.T) {
	sch := Schema{Attrs: []string{"cpu"}}
	cases := []*Policy{
		{Name: "empty"},
		Simple("nilExpr", nil),
		Simple("badAttr", Min(&Table{}, "nope")),
		Simple("negK", &Unary{Op: filter.UMin, K: -1, Attr: "cpu", Input: &Table{}}),
		{Name: "badFB", Outputs: []Output{{Name: "a", Expr: &Table{}}}, FallbackOf: []int{0}},
		{Name: "dupOut", Outputs: []Output{{Name: "a", Expr: &Table{}}, {Name: "a", Expr: &Table{}}}},
	}
	for _, p := range cases {
		if err := p.Validate(sch); err == nil {
			t.Errorf("policy %q should fail validation", p.Name)
		}
	}
	if err := Simple("ok", Min(&Table{}, "cpu")).Validate(sch); err != nil {
		t.Errorf("valid policy rejected: %v", err)
	}
}

func TestValidateDetectsCycle(t *testing.T) {
	sch := Schema{Attrs: []string{"cpu"}}
	u := &Unary{Op: filter.URandom}
	b := &Binary{Op: filter.BUnion, Left: u, Right: &Table{}}
	u.Input = b // cycle
	if err := Simple("cycle", b).Validate(sch); err == nil {
		t.Fatal("cyclic DAG should fail validation")
	}
}

func TestInterpPredicateIntersect(t *testing.T) {
	table, sch := lbTable(t)
	p := MustParse(`
out ok = intersect(filter(table, cpu < 70), filter(table, mem > 1), filter(table, bw > 2))
`)
	it, err := NewInterp(table, sch, p)
	if err != nil {
		t.Fatal(err)
	}
	outs := it.Exec()
	if got, want := outs[0].String(), "{0, 4, 6}"; got != want {
		t.Fatalf("ok = %s, want %s", got, want)
	}
}

func TestInterpSchemaMismatch(t *testing.T) {
	table, _ := lbTable(t)
	p := MustParse(`out a = random(table)`)
	if _, err := NewInterp(table, Schema{Attrs: []string{"only"}}, p); err == nil {
		t.Fatal("schema/table metric count mismatch should fail")
	}
}

func TestInterpMinMaxTopK(t *testing.T) {
	table, sch := lbTable(t)
	p := MustParse(`
out lo  = min(table, cpu)
out hi  = max(table, cpu)
out lo3 = minK(table, cpu, 3)
`)
	it, err := NewInterp(table, sch, p)
	if err != nil {
		t.Fatal(err)
	}
	outs := it.Exec()
	if outs[0].String() != "{7}" { // cpu 10
		t.Errorf("min = %s", outs[0])
	}
	if outs[1].String() != "{1}" { // cpu 90
		t.Errorf("max = %s", outs[1])
	}
	if outs[2].String() != "{2, 4, 7}" { // cpu 10,20,30
		t.Errorf("minK = %s", outs[2])
	}
}

func TestInterpDiffAndUnion(t *testing.T) {
	table, sch := lbTable(t)
	p := MustParse(`
out rest = diff(table, filter(table, cpu < 50))
out all  = union(filter(table, cpu < 50), diff(table, filter(table, cpu < 50)))
`)
	it, err := NewInterp(table, sch, p)
	if err != nil {
		t.Fatal(err)
	}
	outs := it.Exec()
	if got, want := outs[0].String(), "{0, 1, 3, 5, 6}"; got != want {
		t.Errorf("rest = %s, want %s", got, want)
	}
	if !outs[1].Equal(table.MembersView().Clone()) {
		t.Errorf("union of partition != table: %s", outs[1])
	}
}

func TestInterpSharedNodeEvaluatedOnce(t *testing.T) {
	table, sch := lbTable(t)
	// A shared random node must produce the same pick on both outputs of a
	// single Exec (it is one hardware unit feeding two consumers).
	pick := Random(&Table{})
	p := &Policy{Name: "share", Outputs: []Output{
		{Name: "a", Expr: pick},
		{Name: "b", Expr: pick},
	}}
	it, err := NewInterp(table, sch, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		outs := it.Exec()
		if !outs[0].Equal(outs[1]) {
			t.Fatalf("shared node diverged: %s vs %s", outs[0], outs[1])
		}
	}
}

func TestInterpStatefulAcrossExec(t *testing.T) {
	table, sch := lbTable(t)
	p := MustParse(`out next = rr(filter(table, cpu < 70), mem)`)
	it, err := NewInterp(table, sch, p)
	if err != nil {
		t.Fatal(err)
	}
	// Eligible: ids 0,2,3,4,6 (cpu<70). Round-robin must cycle, revisiting
	// according to mem weights; at minimum successive calls are not stuck.
	seen := map[int]bool{}
	for i := 0; i < 60; i++ {
		out := it.Exec()[0]
		if out.Count() != 1 {
			t.Fatalf("rr output = %s", out)
		}
		seen[out.FirstSet()] = true
	}
	for _, id := range []int{0, 2, 3, 4, 6} {
		if !seen[id] {
			t.Errorf("round-robin never selected id %d", id)
		}
	}
}

func TestResolveFallback(t *testing.T) {
	table, sch := lbTable(t)
	// Impossible primary filter: cpu < 0 is empty, so Resolve must fall
	// back to the secondary output.
	p := MustParse(`
out primary = filter(table, cpu < 0)
out backup  = max(table, bw)
fallback primary -> backup
`)
	it, err := NewInterp(table, sch, p)
	if err != nil {
		t.Fatal(err)
	}
	outs := it.Exec()
	if outs[0].Any() {
		t.Fatalf("primary should be empty, got %s", outs[0])
	}
	got := Resolve(p, outs, 0)
	if got.String() != "{1}" { // bw 9 is max
		t.Fatalf("Resolve = %s, want {1}", got)
	}
	// Non-empty primary resolves to itself.
	if r := Resolve(p, outs, 1); !r.Equal(outs[1]) {
		t.Fatal("Resolve of non-empty output should be identity")
	}
}

func TestResolveFallbackChainAndCycle(t *testing.T) {
	v0 := bitvec.New(4)
	v1 := bitvec.New(4)
	v2 := bitvec.FromIDs(4, 3)
	p := &Policy{
		Name: "chain",
		Outputs: []Output{
			{Name: "a", Expr: &Table{}}, {Name: "b", Expr: &Table{}}, {Name: "c", Expr: &Table{}},
		},
		FallbackOf: []int{1, 2, 1}, // a->b->c, and c->b forms a cycle
	}
	got := Resolve(p, []*bitvec.Vector{v0, v1, v2}, 0)
	if !got.Equal(v2) {
		t.Fatalf("chain resolve = %s, want %s", got, v2)
	}
	// All-empty with a cycle must terminate.
	got = Resolve(p, []*bitvec.Vector{v0, v1, bitvec.New(4)}, 0)
	if got.Any() {
		t.Fatal("cyclic all-empty resolve should return an empty table")
	}
}

func TestAssignSeedsDeterministicAndRespectsExplicit(t *testing.T) {
	mk := func() *Policy {
		return MustParse(`
out a = random(table)
out b = sample(table, 2)
`)
	}
	p1, p2 := mk(), mk()
	s1, s2 := AssignSeeds(p1), AssignSeeds(p2)
	if len(s1) != 2 || len(s2) != 2 {
		t.Fatalf("seed counts: %d, %d", len(s1), len(s2))
	}
	// Same structural position -> same seed across identical policies.
	get := func(p *Policy, i int) uint16 {
		return AssignSeeds(p)[p.Outputs[i].Expr.(*Unary)]
	}
	if get(p1, 0) != get(p2, 0) || get(p1, 1) != get(p2, 1) {
		t.Fatal("seeds not deterministic across identical policies")
	}
	if get(p1, 0) == get(p1, 1) {
		t.Fatal("sibling nodes should get different default seeds")
	}
	// Explicit seed wins.
	exp := &Unary{Op: filter.URandom, Seed: 4242, Input: &Table{}}
	p3 := Simple("explicit", exp)
	if AssignSeeds(p3)[exp] != 4242 {
		t.Fatal("explicit seed not respected")
	}
}
