package policy

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// stagePolicy reads every dimension through order-sensitive units: minK and
// min pick by sorted position, so on a tie they expose which equal entry
// was written last; rr and random carry state across decisions.
const stagePolicy = `
let good = intersect(minK(table, a, 3), minK(table, b, 3), filter(table, c < 2))
out primary = min(good, a)
out backup  = max(table, c)
out turn    = rr(table, b)
out pick    = sample(minK(table, c, 4), 1)
fallback primary -> backup
`

// TestStagedWritesMatchImmediate drives a staging module and a twin that
// writes every refresh straight into its table through random interleavings
// of Stage, Upsert, Remove, Decide, Exec and MetricsInto. Values come from
// {0, 1, 2}, so tie runs are long and a row applied out of last-write order
// would land at the wrong place in its run. After every read the two agree
// on the decision, on every output table, and on every dimension's sorted
// order and every resource's position in it.
func TestStagedWritesMatchImmediate(t *testing.T) {
	const n = 8
	schema := Schema{Attrs: []string{"a", "b", "c"}}
	for trial := 0; trial < 200; trial++ {
		r := rand.New(rand.NewSource(int64(trial)))
		staged, err := NewModule(n, schema, MustParse(stagePolicy))
		if err != nil {
			t.Fatal(err)
		}
		eager, err := NewModule(n, schema, MustParse(stagePolicy))
		if err != nil {
			t.Fatal(err)
		}
		row := func() []int64 { return []int64{r.Int63n(3), r.Int63n(3), r.Int63n(3)} }
		var log []string
		fail := func(format string, args ...any) {
			t.Helper()
			t.Fatalf("trial %d after %v: %s", trial, log, fmt.Sprintf(format, args...))
		}
		compare := func() {
			t.Helper()
			for j := range schema.Attrs {
				if got, want := staged.Table.Dim(j).IDsSorted(), eager.Table.Dim(j).IDsSorted(); !slices.Equal(got, want) {
					fail("dimension %d sorts %v, want %v", j, got, want)
				}
				for id := 0; id < n; id++ {
					if got, want := staged.Table.PosInDim(id, j), eager.Table.PosInDim(id, j); got != want {
						fail("id %d at position %d of dimension %d, want %d", id, got, j, want)
					}
				}
			}
		}
		for op := 0; op < 300; op++ {
			id := r.Intn(n)
			switch k := r.Intn(20); {
			case k < 10:
				vals := row()
				if r.Intn(50) == 0 {
					vals = vals[:2]
				}
				log = append(log, fmt.Sprintf("stage(%d,%v)", id, vals))
				// Same error, at stage time, as the write it defers.
				if gotErr, wantErr := staged.Stage(id, vals), eager.Table.Update(id, vals); fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					fail("Stage = %v, Update = %v", gotErr, wantErr)
				}
			case k < 12:
				vals := row()
				log = append(log, fmt.Sprintf("upsert(%d,%v)", id, vals))
				if err := staged.Upsert(id, vals); err != nil {
					fail("staged Upsert: %v", err)
				}
				if err := eager.Upsert(id, vals); err != nil {
					fail("eager Upsert: %v", err)
				}
				compare()
			case k < 13:
				log = append(log, fmt.Sprintf("remove(%d)", id))
				if gotErr, wantErr := staged.Remove(id), eager.Remove(id); (gotErr == nil) != (wantErr == nil) {
					fail("Remove = %v, want %v", gotErr, wantErr)
				}
				compare()
			case k < 17:
				log = append(log, "decide")
				gotID, gotOK := staged.Decide()
				wantID, wantOK := eager.Decide()
				if gotID != wantID || gotOK != wantOK {
					fail("Decide = %d,%v, want %d,%v", gotID, gotOK, wantID, wantOK)
				}
				compare()
			case k < 19:
				log = append(log, "exec")
				got, want := staged.Exec(), eager.Exec()
				for o := range want {
					if !got[o].Equal(want[o]) {
						fail("output %d = %v, want %v", o, got[o].IDs(), want[o].IDs())
					}
				}
				compare()
			default:
				log = append(log, fmt.Sprintf("metrics(%d)", id))
				got, want := make([]int64, 3), make([]int64, 3)
				gotOK, wantOK := staged.MetricsInto(id, got), eager.MetricsInto(id, want)
				if gotOK != wantOK || !slices.Equal(got, want) {
					fail("MetricsInto = %v,%v, want %v,%v", got, gotOK, want, wantOK)
				}
				// The flushed table holds what MetricsInto read through the
				// staged rows.
				staged.flush()
				vals := make([]int64, 3)
				if ok := staged.Table.MetricsInto(id, vals); ok != wantOK || ok && !slices.Equal(vals, want) {
					fail("flushed table's MetricsInto = %v,%v, want %v,%v", vals, ok, want, wantOK)
				}
				compare()
			}
		}
	}
}

// TestStageDecideZeroAlloc asserts the staged write path allocates nothing
// in steady state: refreshes between decisions, some of them to the same
// resource, and the flush at the decision.
func TestStageDecideZeroAlloc(t *testing.T) {
	m, err := NewModule(8, Schema{Attrs: []string{"a", "b", "c"}}, MustParse(stagePolicy))
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < 8; id++ {
		if err := m.Upsert(id, []int64{int64(id % 3), 1, 2}); err != nil {
			t.Fatal(err)
		}
	}
	vals := make([]int64, 3)
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		for k := 0; k < 4; k++ {
			i++
			id := i % 3 // four refreshes over three resources
			if !m.MetricsInto(id, vals) {
				t.Fatal("resource missing")
			}
			vals[i%3] = int64(i % 3)
			if err := m.Stage(id, vals); err != nil {
				t.Fatal(err)
			}
		}
		if _, ok := m.Decide(); !ok {
			t.Fatal("no decision")
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Stage+Decide allocates %.1f times per decision, want 0", allocs)
	}
}
