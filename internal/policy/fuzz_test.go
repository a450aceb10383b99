package policy

import (
	"testing"
)

// exprStructEqual compares two expression trees structurally, ignoring
// pointer identity (DAG sharing is a representation detail lost by the DSL
// round trip). Only used on parser output, which is acyclic.
func exprStructEqual(a, b Expr) bool {
	switch x := a.(type) {
	case *Table:
		_, ok := b.(*Table)
		return ok
	case *Unary:
		y, ok := b.(*Unary)
		return ok && x.Op == y.Op && x.K == y.K && x.Attr == y.Attr &&
			x.Rel == y.Rel && x.Val == y.Val && x.Seed == y.Seed &&
			exprStructEqual(x.Input, y.Input)
	case *Binary:
		y, ok := b.(*Binary)
		return ok && x.Op == y.Op && x.Choice == y.Choice &&
			exprStructEqual(x.Left, y.Left) && exprStructEqual(x.Right, y.Right)
	default:
		return false
	}
}

func policyStructEqual(p, q *Policy) bool {
	if p.Name != q.Name || len(p.Outputs) != len(q.Outputs) || len(p.FallbackOf) != len(q.FallbackOf) {
		return false
	}
	for i := range p.Outputs {
		if p.Outputs[i].Name != q.Outputs[i].Name ||
			!exprStructEqual(p.Outputs[i].Expr, q.Outputs[i].Expr) {
			return false
		}
	}
	for i := range p.FallbackOf {
		if p.FallbackOf[i] != q.FallbackOf[i] {
			return false
		}
	}
	return true
}

// fuzzSeeds is FuzzParse's seed corpus; the id-path differential reuses the
// entries that parse as policies.
var fuzzSeeds = []string{
	"out x = table",
	"policy lb\nlet ok = intersect(filter(table, cpu < 70), filter(table, mem > 1024))\nout primary = random(ok)\nout backup = random(table)\nfallback primary -> backup",
	"out p = min(union(sample(table, 2), minK(table, qprev, 1)), queue)",
	"out r = rr(table, weight)",
	"out k = maxK(table, util, 3)",
	"out d = diff(filter(table, a >= -5), filter(table, a != 0))\nout e = max(table, a)\nfallback d -> e",
	"# comment\npolicy p\nout x = filter(table, a <= 10)",
	"policy", "out", "let x", "out x = ", "out x = min(table", "out x = filter(table, a ? 3)",
	"out x = unknown(table)", "fallback a -> b", "out x = sample(table, 99999999999999999999)",
}

// FuzzParse feeds arbitrary byte strings to the DSL parser. The parser must
// never panic; whenever it accepts an input, the parsed policy must survive
// a print → reparse round trip structurally intact, and the printer must be
// a fixpoint (printing the reparsed policy reproduces the same text).
func FuzzParse(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Parse(src) // must not panic on any input
		if err != nil {
			return
		}
		dsl, err := p.DSL()
		if err != nil {
			t.Fatalf("parsed policy not printable: %v\ninput: %q", err, src)
		}
		p2, err := Parse(dsl)
		if err != nil {
			t.Fatalf("reparse failed: %v\ninput: %q\nprinted:\n%s", err, src, dsl)
		}
		if !policyStructEqual(p, p2) {
			t.Fatalf("round trip changed the policy\ninput: %q\nprinted:\n%s", src, dsl)
		}
		dsl2, err := p2.DSL()
		if err != nil {
			t.Fatalf("reprint failed: %v", err)
		}
		if dsl2 != dsl {
			t.Fatalf("printer is not a fixpoint\nfirst:\n%s\nsecond:\n%s", dsl, dsl2)
		}
	})
}
