// Package graphdb implements the graph-database application of §7.2.2 and
// §7.2.5: a course-catalog graph (each node a course with integer
// attributes; a directed edge marks a prerequisite), a server-side filter
// query engine built on the same relational machinery as the switch (a
// policy over an SMBM of courses), and the in-network cache that stores the
// most popular nodes in a switch SMBM and answers the most popular filter
// queries with the filter pipeline, saving the round trip to the server.
package graphdb

import (
	"fmt"
	"math/rand"

	"repro/internal/bitvec"
	"repro/internal/policy"
	"repro/internal/smbm"
)

// Schema is the course-attribute layout: catalog number, level (100–900),
// term offered (0 = fall, 1 = spring, 2 = both), department id, credits.
var Schema = policy.Schema{Attrs: []string{"number", "level", "term", "dept", "credits"}}

// Course is one node of the graph.
type Course struct {
	ID      int
	Number  int64
	Level   int64
	Term    int64
	Dept    int64
	Credits int64
}

func (c Course) metrics() []int64 {
	return []int64{c.Number, c.Level, c.Term, c.Dept, c.Credits}
}

// Graph is the full database: course nodes stored relationally in an SMBM
// plus prerequisite edges.
type Graph struct {
	table   *smbm.SMBM
	courses map[int]Course
	prereqs map[int][]int // course -> prerequisite course ids
	interps map[*policy.Policy]*policy.Interp
}

// NewGraph creates an empty graph with room for capacity courses.
func NewGraph(capacity int) *Graph {
	return &Graph{
		table:   smbm.New(capacity, len(Schema.Attrs)),
		courses: make(map[int]Course),
		prereqs: make(map[int][]int),
		interps: make(map[*policy.Policy]*policy.Interp),
	}
}

// Capacity returns the maximum number of courses.
func (g *Graph) Capacity() int { return g.table.Capacity() }

// Len returns the number of stored courses.
func (g *Graph) Len() int { return g.table.Size() }

// AddCourse inserts a course node.
func (g *Graph) AddCourse(c Course) error {
	if err := g.table.Add(c.ID, c.metrics()); err != nil {
		return err
	}
	g.courses[c.ID] = c
	return nil
}

// Course returns the course with the given id.
func (g *Graph) Course(id int) (Course, bool) {
	c, ok := g.courses[id]
	return c, ok
}

// AddPrereq records that course depends on prereq. Both must exist.
func (g *Graph) AddPrereq(course, prereq int) error {
	if _, ok := g.courses[course]; !ok {
		return fmt.Errorf("graphdb: unknown course %d", course)
	}
	if _, ok := g.courses[prereq]; !ok {
		return fmt.Errorf("graphdb: unknown prerequisite %d", prereq)
	}
	if course == prereq {
		return fmt.Errorf("graphdb: course %d cannot require itself", course)
	}
	g.prereqs[course] = append(g.prereqs[course], prereq)
	return nil
}

// Prereqs returns the direct prerequisites of a course.
func (g *Graph) Prereqs(course int) []int { return g.prereqs[course] }

// PrereqClosure returns every transitive prerequisite of a course.
func (g *Graph) PrereqClosure(course int) []int {
	seen := map[int]bool{}
	var out []int
	var walk func(c int)
	walk = func(c int) {
		for _, p := range g.prereqs[c] {
			if !seen[p] {
				seen[p] = true
				out = append(out, p)
				walk(p)
			}
		}
	}
	walk(course)
	return out
}

// FilterQuery evaluates a filter policy over the catalog and returns the
// matching course ids as a bit vector — the server-side query engine, using
// the same relational-filter semantics as the switch pipeline. Interpreters
// are cached per policy so repeated queries are cheap: between catalog
// writes a repeated query re-evaluates only its stateful operators. The
// result is a read-only view of that cached interpreter's buffer, valid
// until the catalog is next written or the same policy is queried again
// (see policy.Interp.Exec); take IDs() or Clone() to keep or change it.
func (g *Graph) FilterQuery(pol *policy.Policy) (*bitvec.Vector, error) {
	it, ok := g.interps[pol]
	if !ok {
		var err error
		it, err = policy.NewInterp(g.table, Schema, pol)
		if err != nil {
			return nil, err
		}
		g.interps[pol] = it
	}
	outs := it.Exec()
	return policy.Resolve(pol, outs, 0), nil
}

// SyntheticCatalog builds a deterministic random catalog of n courses with
// a prerequisite DAG (edges only point to lower catalog numbers, so the
// graph is acyclic).
func SyntheticCatalog(seed int64, n int) (*Graph, error) {
	if n <= 0 {
		return nil, fmt.Errorf("graphdb: catalog size must be positive")
	}
	r := rand.New(rand.NewSource(seed))
	g := NewGraph(n)
	for id := 0; id < n; id++ {
		level := int64(100 * (1 + r.Intn(8)))
		c := Course{
			ID:      id,
			Number:  level + int64(r.Intn(99)),
			Level:   level,
			Term:    int64(r.Intn(3)),
			Dept:    int64(r.Intn(8)),
			Credits: int64(1 + r.Intn(4)),
		}
		if err := g.AddCourse(c); err != nil {
			return nil, err
		}
	}
	// Prerequisites: higher-level courses depend on a few lower-numbered
	// ones.
	ids := make([]int, 0, n)
	for id := 0; id < n; id++ {
		ids = append(ids, id)
	}
	for _, id := range ids {
		c := g.courses[id]
		if c.Level <= 100 {
			continue
		}
		for k := 0; k < r.Intn(3); k++ {
			p := r.Intn(n)
			if g.courses[p].Number < c.Number {
				if err := g.AddPrereq(id, p); err != nil {
					return nil, err
				}
			}
		}
	}
	return g, nil
}

// QueryCatalog is a fixed set of filter-query kinds over the course schema,
// standing in for the captured query trace of §7.2.2. Kind k's policy is
// deterministic in k, so every component (server engine, switch cache,
// latency simulation) agrees on what query k means.
type QueryCatalog struct {
	policies []*policy.Policy
}

// NewQueryCatalog builds kinds distinct query policies.
func NewQueryCatalog(seed int64, kinds int) (*QueryCatalog, error) {
	if kinds <= 0 {
		return nil, fmt.Errorf("graphdb: need at least one query kind")
	}
	r := rand.New(rand.NewSource(seed))
	qc := &QueryCatalog{}
	for k := 0; k < kinds; k++ {
		var src string
		switch k % 4 {
		case 0: // courses in a department below a level
			src = fmt.Sprintf(`out hits = intersect(filter(table, dept == %d), filter(table, level < %d))`,
				r.Intn(8), 100*(2+r.Intn(7)))
		case 1: // courses offered a given term with enough credits
			src = fmt.Sprintf(`out hits = intersect(filter(table, term == %d), filter(table, credits >= %d))`,
				r.Intn(3), 1+r.Intn(3))
		case 2: // level range scan
			lo := 100 * (1 + r.Intn(4))
			src = fmt.Sprintf(`out hits = intersect(filter(table, level >= %d), filter(table, level <= %d))`,
				lo, lo+200)
		default: // cheapest course in a department
			src = fmt.Sprintf(`out hits = min(filter(table, dept == %d), number)`, r.Intn(8))
		}
		pol, err := policy.Parse(src)
		if err != nil {
			return nil, err
		}
		pol.Name = fmt.Sprintf("q%d", k)
		qc.policies = append(qc.policies, pol)
	}
	return qc, nil
}

// Kinds returns the number of query kinds.
func (qc *QueryCatalog) Kinds() int { return len(qc.policies) }

// Policy returns the policy for query kind k.
func (qc *QueryCatalog) Policy(k int) *policy.Policy { return qc.policies[k] }
