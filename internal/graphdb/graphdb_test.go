package graphdb

import (
	"testing"

	"repro/internal/policy"
)

func smallGraph(t *testing.T) *Graph {
	t.Helper()
	g := NewGraph(8)
	courses := []Course{
		{ID: 0, Number: 101, Level: 100, Term: 0, Dept: 1, Credits: 3},
		{ID: 1, Number: 201, Level: 200, Term: 1, Dept: 1, Credits: 4},
		{ID: 2, Number: 301, Level: 300, Term: 0, Dept: 2, Credits: 3},
		{ID: 3, Number: 450, Level: 400, Term: 2, Dept: 1, Credits: 2},
		{ID: 4, Number: 550, Level: 500, Term: 0, Dept: 2, Credits: 3},
	}
	for _, c := range courses {
		if err := g.AddCourse(c); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range [][2]int{{1, 0}, {3, 1}, {4, 2}, {4, 3}} {
		if err := g.AddPrereq(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestGraphBasics(t *testing.T) {
	g := smallGraph(t)
	if g.Len() != 5 || g.Capacity() != 8 {
		t.Fatalf("len/cap = %d/%d", g.Len(), g.Capacity())
	}
	if c, ok := g.Course(3); !ok || c.Number != 450 {
		t.Fatalf("Course(3) = %+v, %v", c, ok)
	}
	if _, ok := g.Course(9); ok {
		t.Fatal("missing course should report !ok")
	}
	if err := g.AddCourse(Course{ID: 0}); err == nil {
		t.Fatal("duplicate course should fail")
	}
}

func TestPrereqEdges(t *testing.T) {
	g := smallGraph(t)
	if err := g.AddPrereq(0, 99); err == nil {
		t.Error("unknown prereq should fail")
	}
	if err := g.AddPrereq(99, 0); err == nil {
		t.Error("unknown course should fail")
	}
	if err := g.AddPrereq(1, 1); err == nil {
		t.Error("self-prereq should fail")
	}
	direct := g.Prereqs(4)
	if len(direct) != 2 {
		t.Fatalf("direct prereqs of 4 = %v", direct)
	}
	closure := g.PrereqClosure(4)
	// 4 -> {2, 3}, 3 -> 1, 1 -> 0: closure = {2,3,1,0}.
	if len(closure) != 4 {
		t.Fatalf("closure of 4 = %v", closure)
	}
	if got := g.PrereqClosure(0); len(got) != 0 {
		t.Fatalf("closure of leaf = %v", got)
	}
}

func TestFilterQuery(t *testing.T) {
	g := smallGraph(t)
	pol := policy.MustParse(`out hits = intersect(filter(table, dept == 1), filter(table, level < 400))`)
	res, err := g.FilterQuery(pol)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.String(); got != "{0, 1}" {
		t.Fatalf("query result = %s, want {0, 1}", got)
	}
	// Interpreter is cached: a second run is consistent. The first result
	// is a view the second query invalidates, so compare against a copy.
	first := res.Clone()
	res2, err := g.FilterQuery(pol)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Equal(first) {
		t.Fatal("repeated query diverged")
	}
	// Bad attribute fails cleanly.
	bad := policy.MustParse(`out hits = filter(table, nosuch < 3)`)
	if _, err := g.FilterQuery(bad); err == nil {
		t.Fatal("unknown attribute should fail")
	}
}

func TestSyntheticCatalog(t *testing.T) {
	if _, err := SyntheticCatalog(1, 0); err == nil {
		t.Fatal("empty catalog should fail")
	}
	g, err := SyntheticCatalog(42, 100)
	if err != nil {
		t.Fatal(err)
	}
	if g.Len() != 100 {
		t.Fatalf("catalog size = %d", g.Len())
	}
	// Prerequisite DAG: prereqs always have smaller numbers -> acyclic.
	for id := 0; id < 100; id++ {
		c, _ := g.Course(id)
		for _, p := range g.Prereqs(id) {
			pc, _ := g.Course(p)
			if pc.Number >= c.Number {
				t.Fatalf("course %d (num %d) requires %d (num %d)", id, c.Number, p, pc.Number)
			}
		}
	}
	// Determinism.
	g2, _ := SyntheticCatalog(42, 100)
	for id := 0; id < 100; id++ {
		a, _ := g.Course(id)
		b, _ := g2.Course(id)
		if a != b {
			t.Fatal("catalog not deterministic")
		}
	}
}

func TestQueryCatalog(t *testing.T) {
	if _, err := NewQueryCatalog(1, 0); err == nil {
		t.Fatal("zero kinds should fail")
	}
	qc, err := NewQueryCatalog(3, 16)
	if err != nil {
		t.Fatal(err)
	}
	if qc.Kinds() != 16 {
		t.Fatalf("kinds = %d", qc.Kinds())
	}
	g, _ := SyntheticCatalog(42, 200)
	for k := 0; k < qc.Kinds(); k++ {
		if _, err := g.FilterQuery(qc.Policy(k)); err != nil {
			t.Fatalf("kind %d failed: %v", k, err)
		}
	}
}

func TestCacheInstallAndLookup(t *testing.T) {
	g := smallGraph(t)
	cache := NewCache(4)
	pol := policy.MustParse(`out hits = filter(table, dept == 2)`)

	// Manually cache the dept-2 courses and install the query.
	for _, id := range []int{2, 4} {
		c, _ := g.Course(id)
		if err := cache.InsertNode(c); err != nil {
			t.Fatal(err)
		}
	}
	// Idempotent insert.
	c2, _ := g.Course(2)
	if err := cache.InsertNode(c2); err != nil {
		t.Fatal(err)
	}
	if cache.Len() != 2 {
		t.Fatalf("cache len = %d", cache.Len())
	}
	if err := cache.InstallQuery(7, pol); err != nil {
		t.Fatal(err)
	}
	if !cache.Installed(7) || cache.Installed(8) {
		t.Fatal("Installed wrong")
	}
	res, ok := cache.Lookup(7)
	if !ok {
		t.Fatal("lookup of installed kind failed")
	}
	if len(res) != 2 || res[0] != 2 || res[1] != 4 {
		t.Fatalf("cached result = %v", res)
	}
	if !cache.Contains(2) || cache.Contains(0) {
		t.Fatal("Contains wrong")
	}
	if _, ok := cache.Lookup(8); ok {
		t.Fatal("uninstalled kind should miss")
	}
}

func TestInstallForAndVerify(t *testing.T) {
	g, _ := SyntheticCatalog(7, 300)
	qc, _ := NewQueryCatalog(9, 24)
	cache := NewCache(200)
	popular := []int{0, 1, 2, 3, 4, 5, 6, 7}
	installed, err := cache.InstallFor(g, qc, popular)
	if err != nil {
		t.Fatal(err)
	}
	if len(installed) == 0 {
		t.Fatal("nothing installed")
	}
	// Every installed query answers exactly as the server would.
	if err := cache.VerifyAgainst(g, qc); err != nil {
		t.Fatal(err)
	}
	// Out-of-range kind is rejected.
	if _, err := cache.InstallFor(g, qc, []int{99}); err == nil {
		t.Fatal("bad kind should fail")
	}
}

func TestInstallForSkipsOversizedQueries(t *testing.T) {
	g, _ := SyntheticCatalog(7, 300)
	qc, _ := NewQueryCatalog(9, 24)
	tiny := NewCache(3)
	installed, err := tiny.InstallFor(g, qc, []int{0, 1, 2, 3, 4, 5, 6, 7})
	if err != nil {
		t.Fatal(err)
	}
	// With 3 slots, broad scans cannot fit; whatever was installed must
	// still verify exactly.
	if err := tiny.VerifyAgainst(g, qc); err != nil {
		t.Fatal(err)
	}
	if tiny.Len() > tiny.Capacity() {
		t.Fatal("capacity exceeded")
	}
	_ = installed
}
