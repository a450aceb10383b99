package engine

import (
	"errors"
	"testing"

	"repro/internal/policy"
	"repro/internal/smbm"
)

// TestEngineDecisionsTrackEveryWrite is the deterministic stale-read test.
// Interpreters keep content-static step results between decisions and
// refresh them when their table's version moves, so a decision issued right
// after a write is the one that would expose a missed refresh. Under
// out best = min(table, cpu) every write here makes a different id the
// minimum; after each one, every shard must answer exactly what a freshly
// built single-threaded policy.Module answers after replaying the same
// writes. Every shard's interpreter is read with an older result still in
// its buffers. The same must hold after a diverged shard's inline rebuild
// and after SwapPolicy's rebuilt interpreters.
func TestEngineDecisionsTrackEveryWrite(t *testing.T) {
	const shards = 2
	e := newTestEngine(t, shards, minPolicySrc)

	type write struct {
		id   int
		vals []int64
	}
	var log []write
	// apply sends one write to the engine through op and logs it for the
	// reference modules, which replay every write as an Upsert.
	apply := func(op func(int, []int64) error, id int, cpu int64) error {
		w := write{id, []int64{cpu, int64(id), 0}}
		log = append(log, w)
		return op(w.id, w.vals)
	}
	upsert := func(id int, cpu int64) error { return apply(e.Upsert, id, cpu) }
	check := func(when string) {
		t.Helper()
		ref, err := policy.NewModule(64, testSchema, policy.MustParse(minPolicySrc))
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range log {
			if err := ref.Upsert(w.id, w.vals); err != nil {
				t.Fatal(err)
			}
		}
		wantID, wantOK := ref.Decide()
		// Two rounds: the first decision at a new version refreshes the
		// shard's static buffers, the second reuses them. Keys cover every
		// shard several times over.
		for round := 0; round < 2; round++ {
			pkts := make([]Packet, 4*shards)
			for i := range pkts {
				pkts[i].Key = uint64(i)
			}
			e.DecideBatch(pkts)
			for i, p := range pkts {
				if p.ID != wantID || p.OK != wantOK {
					t.Fatalf("%s, round %d, packet %d (home shard %d): got id %d ok %v, fresh module says id %d ok %v",
						when, round, i, i%shards, p.ID, p.OK, wantID, wantOK)
				}
			}
		}
	}

	// Distinct cpu values throughout: no ties, so the answer does not depend
	// on insertion order.
	for id := 0; id < 8; id++ {
		if err := upsert(id, int64(100+10*id)); err != nil {
			t.Fatal(err)
		}
	}
	check("seeded")
	cpu := int64(90)
	next := func(when string, id int) {
		t.Helper()
		if err := upsert(id, cpu); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		cpu--
		check(when)
	}
	for step := 0; step < 6; step++ {
		next("consecutive write", (3*step+1)%8)
	}

	// Corrupt shard 1; the Update that detects it (an Upsert would quietly
	// re-add the id) rebuilds the shard from shard 0, so its answers
	// must follow the write too.
	if err := e.corruptReplica(1, 5); err != nil {
		t.Fatal(err)
	}
	if err := apply(e.Update, 5, cpu); !errors.Is(err, smbm.ErrReplicaDivergence) {
		t.Fatalf("write to corrupted id: err = %v, want ErrReplicaDivergence", err)
	}
	cpu--
	check("rebuilt")
	next("write after rebuild", 2)
	next("second write after rebuild", 6)

	// An equivalent program, freshly parsed: new interpreters over the same
	// tables, at whatever versions those tables have reached.
	if err := e.SwapPolicy(policy.MustParse("policy mintest2\nout best = min(table, cpu)\n")); err != nil {
		t.Fatal(err)
	}
	check("swapped")
	next("write after swap", 4)
	next("second write after swap", 0)
	if err := e.CheckSync(); err != nil {
		t.Fatal(err)
	}
}
