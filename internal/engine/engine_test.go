package engine

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"repro/internal/policy"
	"repro/internal/smbm"
	"repro/internal/telemetry"
)

var testSchema = policy.Schema{Attrs: []string{"cpu", "mem", "bw"}}

const testPolicySrc = `
policy lbtest
let ok = intersect(filter(table, cpu < 70), filter(table, mem > 1024), filter(table, bw > 2000))
out primary = random(ok)
out backup  = random(table)
fallback primary -> backup
`

// minPolicy is fully deterministic: its decision depends only on table
// contents, so every shard must return the same answer.
const minPolicySrc = `
policy mintest
out best = min(table, cpu)
`

func newTestEngine(t testing.TB, shards int, src string) *Engine {
	t.Helper()
	e, err := New(Config{
		Shards:   shards,
		Capacity: 64,
		Schema:   testSchema,
		Policy:   policy.MustParse(src),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	return e
}

func fillRandom(t testing.TB, e *Engine, n int, seed int64) {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	for id := 0; id < n; id++ {
		if err := e.Add(id, []int64{int64(r.Intn(100)), int64(r.Intn(8192)), int64(r.Intn(10000))}); err != nil {
			t.Fatal(err)
		}
	}
}

// shardMetrics reads id's metric values from shard si's table under the
// writer lock, or returns nil if the id is absent there.
func (e *Engine) shardMetrics(si, id int) []int64 {
	e.wmu.Lock()
	defer e.wmu.Unlock()
	t := e.shards[si].mod.Table
	vals := make([]int64, t.NumMetrics())
	if !t.MetricsInto(id, vals) {
		return nil
	}
	return vals
}

func TestEngineConfigErrors(t *testing.T) {
	if _, err := New(Config{Capacity: 0, Schema: testSchema, Policy: policy.MustParse(minPolicySrc)}); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := New(Config{Capacity: 8, Schema: testSchema}); err == nil {
		t.Error("nil policy accepted")
	}
	// Schema/policy mismatch surfaces the interpreter's validation error.
	if _, err := New(Config{Capacity: 8, Schema: policy.Schema{Attrs: []string{"x"}},
		Policy: policy.MustParse(minPolicySrc)}); err == nil {
		t.Error("unknown attribute accepted")
	}
}

// TestEngineMatchesSequentialOracle drives the deterministic min policy and
// checks every shard's decision against a table-derived oracle, across a
// stream of interleaved writes.
func TestEngineMatchesSequentialOracle(t *testing.T) {
	e := newTestEngine(t, 4, minPolicySrc)
	r := rand.New(rand.NewSource(11))
	oracle := map[int][]int64{} // id -> metrics

	bestID := func() (int, bool) {
		best, found := -1, false
		var bestCPU int64
		for id, vals := range oracle {
			// FIFO tie-break in the SMBM resolves equal minima toward the
			// earliest-inserted entry; avoid ties entirely by construction.
			if !found || vals[0] < bestCPU {
				best, bestCPU, found = id, vals[0], true
			}
		}
		return best, found
	}

	used := map[int64]bool{}
	pkts := make([]Packet, 16)
	for step := 0; step < 200; step++ {
		id := r.Intn(64)
		switch {
		case r.Intn(3) == 0 && len(oracle) > 0:
			for k := range oracle {
				id = k
				break
			}
			if err := e.Delete(id); err != nil {
				t.Fatal(err)
			}
			delete(oracle, id)
		default:
			// Unique cpu values so the min is unambiguous.
			cpu := int64(r.Intn(1 << 30))
			for used[cpu] {
				cpu = int64(r.Intn(1 << 30))
			}
			used[cpu] = true
			vals := []int64{cpu, int64(r.Intn(8192)), int64(r.Intn(10000))}
			if _, ok := oracle[id]; ok {
				if err := e.Update(id, vals); err != nil {
					t.Fatal(err)
				}
			} else if err := e.Add(id, vals); err != nil {
				t.Fatal(err)
			}
			oracle[id] = vals
		}

		for i := range pkts {
			pkts[i] = Packet{Key: uint64(r.Uint32()), Out: 0}
		}
		e.DecideBatch(pkts)
		want, wantOK := bestID()
		for i, p := range pkts {
			if p.OK != wantOK || (wantOK && p.ID != want) {
				t.Fatalf("step %d packet %d: got (%d,%v), want (%d,%v)", step, i, p.ID, p.OK, want, wantOK)
			}
		}
	}
	if err := e.CheckSync(); err != nil {
		t.Fatal(err)
	}
}

// TestEngineFallback checks fallback resolution through the batched path:
// with no resource passing the primary filter, decisions must come from the
// backup output, and an empty table must yield OK=false.
func TestEngineFallback(t *testing.T) {
	e := newTestEngine(t, 2, testPolicySrc)

	pkts := []Packet{{Key: 0}, {Key: 1}, {Key: 2}}
	e.DecideBatch(pkts)
	for i, p := range pkts {
		if p.OK || p.ID != -1 {
			t.Fatalf("packet %d decided (%d,%v) on an empty table", i, p.ID, p.OK)
		}
	}

	// One resource that fails every primary predicate: only the backup
	// (random over the full table) can pick it.
	if err := e.Add(7, []int64{99, 0, 0}); err != nil {
		t.Fatal(err)
	}
	e.DecideBatch(pkts)
	for i, p := range pkts {
		if !p.OK || p.ID != 7 {
			t.Fatalf("packet %d: got (%d,%v), want (7,true)", i, p.ID, p.OK)
		}
	}
}

// TestEngineWriteErrorsLeaveReplicasUntouched pins the write-error contract
// that lets one replica validate every write: each of the SMBM's five write
// errors comes back as itself, not as a divergence, and leaves every shard's
// table at the version and size it had, rebuilds no shard and keeps the
// replicas in sync. Each error depends only on the table's shape and
// membership, which every replica shares op for op.
func TestEngineWriteErrorsLeaveReplicasUntouched(t *testing.T) {
	reg := telemetry.NewRegistry()
	e := newTelemetryEngine(t, 3, minPolicySrc, reg)
	fillRandom(t, e, 8, 5)

	expect := func(name string, want error, write func() error) {
		t.Helper()
		before := e.Introspect().Shards
		err := write()
		if !errors.Is(err, want) || errors.Is(err, smbm.ErrReplicaDivergence) {
			t.Fatalf("%s: err = %v, want %v", name, err, want)
		}
		if after := e.Introspect().Shards; !slices.Equal(after, before) {
			t.Fatalf("%s: shard tables went from %+v to %+v", name, before, after)
		}
		if n := snapCounter(t, reg.Snapshot(), "thanos_engine_shards_quarantined_total"); n != 0 {
			t.Fatalf("%s: %d shards rebuilt, want 0", name, n)
		}
		if err := e.CheckSync(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	three, two := []int64{1, 1, 1}, []int64{1, 1}
	for _, id := range []int{-1, e.Capacity()} {
		expect(fmt.Sprintf("Add(%d)", id), smbm.ErrBadID, func() error { return e.Add(id, three) })
		expect(fmt.Sprintf("Upsert(%d)", id), smbm.ErrBadID, func() error { return e.Upsert(id, three) })
	}
	expect("Add of two values", smbm.ErrMetricsArity, func() error { return e.Add(20, two) })
	expect("Update of two values", smbm.ErrMetricsArity, func() error { return e.Update(3, two) })
	expect("Upsert of two values to a present id", smbm.ErrMetricsArity, func() error { return e.Upsert(3, two) })
	expect("Upsert of two values to an absent id", smbm.ErrMetricsArity, func() error { return e.Upsert(20, two) })
	expect("Add of a present id", smbm.ErrDuplicateID, func() error { return e.Add(3, three) })
	expect("Delete of an absent id", smbm.ErrNotFound, func() error { return e.Delete(60) })
	expect("Update of an absent id", smbm.ErrNotFound, func() error { return e.Update(61, three) })

	// Every slot taken: an add is refused for room before its id is looked up.
	for id := 8; id < e.Capacity(); id++ {
		if err := e.Add(id, three); err != nil {
			t.Fatal(err)
		}
	}
	expect("Add to a full table", smbm.ErrFull, func() error { return e.Add(3, three) })
}

// TestEngineUpsertAndMetrics: an upsert of an absent id adds it and one of a
// present id replaces its values, on every shard's table.
func TestEngineUpsertAndMetrics(t *testing.T) {
	e := newTestEngine(t, 2, minPolicySrc)
	if err := e.Upsert(4, []int64{10, 20, 30}); err != nil {
		t.Fatal(err)
	}
	if err := e.Upsert(4, []int64{11, 21, 31}); err != nil {
		t.Fatal(err)
	}
	for si := range e.shards {
		if vals := e.shardMetrics(si, 4); !slices.Equal(vals, []int64{11, 21, 31}) {
			t.Fatalf("shard %d holds id 4 = %v, want [11 21 31]", si, vals)
		}
		if vals := e.shardMetrics(si, 5); vals != nil {
			t.Fatalf("shard %d holds absent id 5 = %v", si, vals)
		}
	}
	if err := e.CheckSync(); err != nil {
		t.Fatal(err)
	}
}

// TestEngineDecideSingle exercises the single-decision convenience path that
// the simulator backends use.
func TestEngineDecideSingle(t *testing.T) {
	e := newTestEngine(t, 3, minPolicySrc)
	if _, ok := e.Decide(); ok {
		t.Fatal("decision on empty table")
	}
	if err := e.Add(9, []int64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	// Every shard must agree: id 9 is the only (hence minimal) entry.
	for i := 0; i < 10; i++ {
		id, ok := e.Decide()
		if !ok || id != 9 {
			t.Fatalf("Decide() = (%d, %v), want (9, true)", id, ok)
		}
	}
}

// TestEngineBigBatchAllShards pushes one large batch whose keys cover every
// shard, so a single call visits all of them and each decides a long run of
// interleaved packets.
func TestEngineBigBatchAllShards(t *testing.T) {
	e, err := New(Config{
		Shards:   4,
		Capacity: 64,
		Schema:   testSchema,
		Policy:   policy.MustParse(minPolicySrc),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.Add(5, []int64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	pkts := make([]Packet, 4096)
	for i := range pkts {
		pkts[i] = Packet{Key: uint64(i)}
	}
	e.DecideBatch(pkts)
	for i, p := range pkts {
		if !p.OK || p.ID != 5 {
			t.Fatalf("packet %d: got (%d,%v), want (5,true)", i, p.ID, p.OK)
		}
	}
}

// TestEngineOwnsNoGoroutines pins the run-to-completion contract: decisions
// execute on their callers, so a healthy engine starts no goroutine, and one
// whose Close was forgotten leaks none.
func TestEngineOwnsNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	e, err := New(Config{Shards: 4, Capacity: 64, Schema: testSchema, Policy: policy.MustParse(minPolicySrc)})
	if err != nil {
		t.Fatal(err)
	}
	fillRandom(t, e, 16, 1)
	pkts := make([]Packet, 64)
	for n := 0; n < 1000; n++ {
		for i := range pkts {
			pkts[i] = Packet{Key: uint64(n*len(pkts) + i)}
		}
		e.DecideBatch(pkts)
	}
	// No Close. Goroutines that earlier tests left winding down can only
	// lower the count.
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines: %d before New, %d after 1000 batches; the engine must own none", before, after)
	}
}

func TestEngineCloseIdempotentAndDefaults(t *testing.T) {
	e, err := New(Config{Capacity: 8, Schema: testSchema, Policy: policy.MustParse(minPolicySrc)})
	if err != nil {
		t.Fatal(err)
	}
	if e.Shards() < 1 {
		t.Fatalf("default shard count %d", e.Shards())
	}
	if e.Capacity() != 8 {
		t.Fatalf("capacity %d", e.Capacity())
	}
	e.Close()
	e.Close() // second close is a no-op

	// Use after Close degrades instead of panicking: decisions come back
	// undecided, writes report ErrClosed.
	pkts := []Packet{{Key: 1, ID: 7, OK: true}}
	e.DecideBatch(pkts)
	if pkts[0].OK || pkts[0].ID != -1 {
		t.Fatalf("DecideBatch after Close: got (%d,%v), want (-1,false)", pkts[0].ID, pkts[0].OK)
	}
	if id, ok := e.Decide(); ok || id != -1 {
		t.Fatalf("Decide after Close: got (%d,%v), want (-1,false)", id, ok)
	}
	if err := e.Add(1, []int64{1, 2, 3}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Add after Close: err = %v, want ErrClosed", err)
	}
}

func TestEngineBadOutputDegrades(t *testing.T) {
	// An out-of-range output index fails the packet in place instead of
	// panicking: with policy hot-swaps the caller's view of the output count
	// is inherently racy, so this is a degradation, not a programming error.
	e := newTestEngine(t, 1, minPolicySrc)
	pkts := []Packet{{Out: 5, ID: 42, OK: true}, {Out: 0}}
	e.DecideBatch(pkts)
	if pkts[0].OK || pkts[0].ID != -1 {
		t.Fatalf("bad-output packet: got (%d,%v), want (-1,false)", pkts[0].ID, pkts[0].OK)
	}
	// The valid packet in the same batch is still decided normally.
	if err := e.CheckSync(); err != nil {
		t.Fatal(err)
	}
}
