package policy

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/smbm"
)

// Table5Policies are the five example policies of Table 5, expressed in the
// DSL. Attribute names follow §7.2's experiments.
var Table5Policies = map[string]string{
	// Policy 1 in §7.2.3 (ECMP-style): random path.
	"ecmp": `
policy ecmp
out path = random(table)
`,
	// Policy 2 in §7.2.3 (CONGA-style): least utilized path.
	"conga": `
policy conga
out path = min(table, util)
`,
	// Policy 2 in §7.2.2: resource-aware server selection with fallback.
	"lb2": `
policy lb2
let ok = intersect(filter(table, cpu < 70), filter(table, mem > 1), filter(table, bw > 2))
out primary = random(ok)
out backup  = random(table)
fallback primary -> backup
`,
	// Policy 3 in §7.2.3: paths simultaneously in the top-X by least
	// queuing, least loss, and least utilization; pick least utilized,
	// falling back to global least utilized.
	"routing3": `
policy routing3
let good = intersect(minK(table, queue, 5), minK(table, loss, 5), minK(table, util, 5))
out primary = min(good, util)
out backup  = min(table, util)
fallback primary -> backup
`,
	// Policy 3 in §7.2.4 (DRILL): d random samples unioned with the m least
	// loaded samples from the previous slot; pick the least queued.
	"drill": `
policy drill
out port = min(union(sample(table, 2), minK(table, qprev, 1)), queue)
`,
}

func table5Schema(name string) Schema {
	switch name {
	case "lb2":
		return Schema{Attrs: []string{"cpu", "mem", "bw"}}
	case "drill":
		return Schema{Attrs: []string{"queue", "qprev"}}
	default:
		return Schema{Attrs: []string{"util", "queue", "loss"}}
	}
}

func randomTable(t testing.TB, n int, schema Schema, seed int64) *smbm.SMBM {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	s := smbm.New(n, len(schema.Attrs))
	for id := 0; id < n; id++ {
		vals := make([]int64, len(schema.Attrs))
		for j := range vals {
			vals[j] = int64(r.Intn(100))
		}
		if err := s.Add(id, vals); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestTable5PoliciesCompileOnDefaultParams verifies every Table 5 policy
// fits the paper's default design point (n=4, f=2, k=4, K=4 — §6 chooses the
// defaults "with an understanding that these values can support most
// practical network filter policies, such as the ones shown in Table 5"),
// except those whose K exceeds the default chain length, which get the next
// design point up.
func TestTable5PoliciesCompileOnDefaultParams(t *testing.T) {
	for name, src := range Table5Policies {
		t.Run(name, func(t *testing.T) {
			p := MustParse(src)
			schema := table5Schema(name)
			params := pipeline.DefaultParams()
			if name == "routing3" {
				params.ChainLen = 8 // top-5 chains need K ≥ 5
			}
			cc, err := Compile(p, schema, params)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			table := randomTable(t, 16, schema, 7)
			pl, err := pipeline.New(table, cc.Config)
			if err != nil {
				t.Fatalf("instantiate: %v", err)
			}
			outs, err := cc.Run(pl)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if len(outs) != len(p.Outputs) {
				t.Fatalf("%d outputs, want %d", len(outs), len(p.Outputs))
			}
		})
	}
}

// TestCompiledMatchesInterp is the central equivalence property: the
// compiled pipeline must produce exactly the same tables as direct AST
// interpretation, packet after packet, within and across table versions,
// for every Table 5 policy.
func TestCompiledMatchesInterp(t *testing.T) {
	for name, src := range Table5Policies {
		t.Run(name, func(t *testing.T) {
			schema := table5Schema(name)
			table := randomTable(t, 16, schema, 42)

			pInterp := MustParse(src)
			pCompiled := MustParse(src)

			it, err := NewInterp(table, schema, pInterp)
			if err != nil {
				t.Fatal(err)
			}
			params := pipeline.DefaultParams()
			if name == "routing3" {
				params.ChainLen = 8
			}
			pl, cc, err := NewPipeline(table, schema, pCompiled, params)
			if err != nil {
				t.Fatal(err)
			}

			r := rand.New(rand.NewSource(7))
			for step := 0; step < 50; step++ {
				want := it.Exec()
				got, err := cc.Run(pl)
				if err != nil {
					t.Fatal(err)
				}
				for i := range want {
					if !got[i].Equal(want[i]) {
						t.Fatalf("step %d output %d: pipeline %s != interp %s",
							step, i, got[i], want[i])
					}
				}
				// Mutate the table after about every other packet, as probe
				// packets would: the packets in between run against an
				// unchanged table version, where the interpreter reuses its
				// content-static buffers and the pipeline recomputes them.
				if r.Intn(2) == 0 {
					continue
				}
				id := r.Intn(16)
				vals := make([]int64, len(schema.Attrs))
				for j := range vals {
					vals[j] = int64(r.Intn(100))
				}
				if table.Contains(id) {
					if err := table.Update(id, vals); err != nil {
						t.Fatal(err)
					}
				} else {
					if err := table.Add(id, vals); err != nil {
						t.Fatal(err)
					}
				}
			}
		})
	}
}

// TestCompiledMatchesInterpRandomPolicies drives equivalence on randomly
// generated deterministic policies (predicates, min/max, set ops).
func TestCompiledMatchesInterpRandomPolicies(t *testing.T) {
	schema := Schema{Attrs: []string{"a", "b"}}
	genExpr := func(r *rand.Rand) Expr {
		var gen func(depth int) Expr
		gen = func(depth int) Expr {
			if depth <= 0 || r.Intn(3) == 0 {
				return &Table{}
			}
			switch r.Intn(4) {
			case 0:
				return Pred(gen(depth-1), schema.Attrs[r.Intn(2)], 0, int64(r.Intn(100)))
			case 1:
				return Min(gen(depth-1), schema.Attrs[r.Intn(2)])
			case 2:
				return Max(gen(depth-1), schema.Attrs[r.Intn(2)])
			default:
				op := []Expr{gen(depth - 1), gen(depth - 1)}
				switch r.Intn(3) {
				case 0:
					return Union(op...)
				case 1:
					return Intersect(op...)
				default:
					return Diff(op[0], op[1])
				}
			}
		}
		return gen(3)
	}
	for trial := 0; trial < 40; trial++ {
		r := rand.New(rand.NewSource(int64(trial)))
		expr := genExpr(r)
		p := Simple("rand", expr)
		table := randomTable(t, 12, schema, int64(trial)*31)
		it, err := NewInterp(table, schema, p)
		if err != nil {
			t.Fatal(err)
		}
		// Generous parameters: random shapes can need depth and width.
		params := pipeline.Params{Inputs: 8, Fanout: 2, Stages: 8, ChainLen: 2}
		pl, cc, err := NewPipeline(table, schema, p, params)
		if err != nil {
			// Some random shapes legitimately exceed even these bounds
			// (e.g. >8 parallel predicates); skip those.
			if strings.Contains(err.Error(), "slots") || strings.Contains(err.Error(), "fan-out") {
				continue
			}
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := it.Exec()
		got, err := cc.Run(pl)
		if err != nil {
			t.Fatal(err)
		}
		if !got[0].Equal(want[0]) {
			t.Fatalf("trial %d (%s): pipeline %s != interp %s", trial, expr, got[0], want[0])
		}
	}
}

func TestCompileErrors(t *testing.T) {
	schema := Schema{Attrs: []string{"x"}}

	// Chain length exceeded.
	p := Simple("topk", TopKMin(&Table{}, "x", 9))
	if _, err := Compile(p, schema, pipeline.DefaultParams()); err == nil ||
		!strings.Contains(err.Error(), "chain length") {
		t.Errorf("chain-length error missing, got %v", err)
	}

	// Too many outputs for the pipeline width.
	many := &Policy{Name: "wide"}
	for _, n := range []string{"a", "b", "c", "d", "e"} {
		many.Outputs = append(many.Outputs, Output{Name: n, Expr: Min(&Table{}, "x")})
	}
	if _, err := Compile(many, schema, pipeline.DefaultParams()); err == nil ||
		!strings.Contains(err.Error(), "outputs exceed") {
		t.Errorf("width error missing, got %v", err)
	}

	// Needs more stages than available.
	deep := Expr(&Table{})
	for i := 0; i < 6; i++ {
		deep = Min(deep, "x")
	}
	if _, err := Compile(Simple("deep", deep), schema,
		pipeline.Params{Inputs: 2, Fanout: 1, Stages: 3, ChainLen: 1}); err == nil {
		t.Error("depth error missing")
	}

	// Fan-out exceeded: one value consumed by three ops in one stage.
	shared := Pred(&Table{}, "x", 0, 50)
	wide := &Policy{Name: "fan", Outputs: []Output{
		{Name: "a", Expr: Min(shared, "x")},
		{Name: "b", Expr: Max(shared, "x")},
		{Name: "c", Expr: Random(shared)},
	}}
	if _, err := Compile(wide, schema,
		pipeline.Params{Inputs: 8, Fanout: 2, Stages: 4, ChainLen: 1}); err == nil ||
		!strings.Contains(err.Error(), "fan-out") {
		t.Errorf("fan-out error missing, got %v", err)
	}
	// ...but it compiles with f=3.
	if _, err := Compile(wide, schema,
		pipeline.Params{Inputs: 8, Fanout: 3, Stages: 4, ChainLen: 1}); err != nil {
		t.Errorf("f=3 should fit: %v", err)
	}
}

func TestCompileTooManySlotsError(t *testing.T) {
	schema := Schema{Attrs: []string{"x"}}
	// Five independent predicates at stage 0 need 5 slots; n=4 has 4.
	p := &Policy{Name: "slots"}
	for i, n := range []string{"a", "b", "c", "d"} {
		p.Outputs = append(p.Outputs, Output{Name: n, Expr: Pred(&Table{}, "x", 0, int64(i))})
	}
	// 4 predicates + no carries fits exactly on n=4.
	if _, err := Compile(p, schema, pipeline.Params{Inputs: 4, Fanout: 2, Stages: 1, ChainLen: 1}); err != nil {
		t.Errorf("exact fit rejected: %v", err)
	}
	p.Outputs = append(p.Outputs, Output{Name: "e", Expr: Pred(&Table{}, "x", 0, 99)})
	if _, err := Compile(p, schema, pipeline.Params{Inputs: 6, Fanout: 2, Stages: 1, ChainLen: 1}); err != nil {
		t.Errorf("5 predicates on n=6 rejected: %v", err)
	}
}

func TestCompileCanonicalizesTableInstances(t *testing.T) {
	schema := Schema{Attrs: []string{"x"}}
	// Two distinct &Table{} leaves must share pipeline input lines.
	p := &Policy{Name: "two-tables", Outputs: []Output{
		{Name: "a", Expr: Min(&Table{}, "x")},
		{Name: "b", Expr: Max(&Table{}, "x")},
	}}
	cc, err := Compile(p, schema, pipeline.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	table := randomTable(t, 8, schema, 3)
	pl, err := pipeline.New(table, cc.Config)
	if err != nil {
		t.Fatal(err)
	}
	outs, err := cc.Run(pl)
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].Count() != 1 || outs[1].Count() != 1 {
		t.Fatalf("outputs: %s, %s", outs[0], outs[1])
	}
}

// TestCompileLatencyReported sanity-checks that compiled pipelines report a
// deterministic, bounded latency, the design goal of §5 ("small, and more
// importantly, deterministic processing latency").
func TestCompileLatencyReported(t *testing.T) {
	schema := table5Schema("lb2")
	table := randomTable(t, 8, schema, 1)
	p := MustParse(Table5Policies["lb2"])
	pl, _, err := NewPipeline(table, schema, p, pipeline.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	lat := pl.Latency()
	if lat == 0 {
		t.Fatal("latency should be positive")
	}
	// k stages × (crossbar + chain of 4×(2+1) + BFPU) = 4 × 14 = 56.
	if lat != 56 {
		t.Fatalf("latency = %d, want 56 for default params", lat)
	}
}

// TestFusionMatchesFigure14 verifies the compiler's Cell-fusion: a binary
// node absorbs single-use unary children into its own Cell (B1(U1(a),
// U2(b))), which is exactly how Figure 14 lays out Policy 2 of §7.2.2 — the
// whole policy fits a 3-stage pipeline instead of needing one stage per
// AST level.
func TestFusionMatchesFigure14(t *testing.T) {
	p := MustParse(Table5Policies["lb2"])
	schema := table5Schema("lb2")
	params := pipeline.Params{Inputs: 4, Fanout: 1, Stages: 3, ChainLen: 1}
	cc, err := Compile(p, schema, params)
	if err != nil {
		t.Fatalf("lb2 should fit the Figure 14 shape (3 stages, f=1): %v", err)
	}
	// And it still computes the right thing.
	table := randomTable(t, 16, schema, 3)
	pl, err := pipeline.New(table, cc.Config)
	if err != nil {
		t.Fatal(err)
	}
	it, err := NewInterp(table, schema, MustParse(Table5Policies["lb2"]))
	if err != nil {
		t.Fatal(err)
	}
	for step := 0; step < 20; step++ {
		want := it.Exec()
		got, err := cc.Run(pl)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if !got[i].Equal(want[i]) {
				t.Fatalf("step %d output %d: %s != %s", step, i, got[i], want[i])
			}
		}
	}
}

// TestFusionSkipsSharedChildren ensures a unary child consumed by two
// parents is NOT fused (its value must exist on a line for both).
func TestFusionSkipsSharedChildren(t *testing.T) {
	schema := Schema{Attrs: []string{"x"}}
	shared := Pred(&Table{}, "x", 0, 50)
	p := &Policy{Name: "shared", Outputs: []Output{
		{Name: "a", Expr: Intersect(shared, Pred(&Table{}, "x", 1, 10))},
		{Name: "b", Expr: Union(shared, Max(&Table{}, "x"))},
	}}
	cc, err := Compile(p, schema, pipeline.Params{Inputs: 6, Fanout: 2, Stages: 4, ChainLen: 1})
	if err != nil {
		t.Fatal(err)
	}
	table := randomTable(t, 12, schema, 9)
	pl, err := pipeline.New(table, cc.Config)
	if err != nil {
		t.Fatal(err)
	}
	it, _ := NewInterp(table, schema, p)
	want := it.Exec()
	got, err := cc.Run(pl)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("output %d: %s != %s", i, got[i], want[i])
		}
	}
}

// TestFusionOutputChildNotFused ensures a unary node that is itself a
// policy output is kept on its own line even when a binary consumes it.
func TestFusionOutputChildNotFused(t *testing.T) {
	schema := Schema{Attrs: []string{"x"}}
	pred := Pred(&Table{}, "x", 0, 50)
	p := &Policy{Name: "outchild", Outputs: []Output{
		{Name: "all", Expr: pred},
		{Name: "best", Expr: Min(pred, "x")},
	}}
	cc, err := Compile(p, schema, pipeline.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	table := randomTable(t, 10, schema, 4)
	pl, err := pipeline.New(table, cc.Config)
	if err != nil {
		t.Fatal(err)
	}
	it, _ := NewInterp(table, schema, p)
	want := it.Exec()
	got, err := cc.Run(pl)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("output %d: %s != %s", i, got[i], want[i])
		}
	}
}
