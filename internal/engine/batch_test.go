package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/lb"
	"repro/internal/policy"
	"repro/internal/telemetry"
)

// drillTailSrc is DRILL's shape (Fig. 18) with a fallback output: everything
// under best's min reads the samples, so its dynamic steps are all tail.
const drillTailSrc = `
policy drilltail
out best = min(union(sample(filter(table, cpu < 70), 2), min(table, mem)), bw)
out any  = random(table)
fallback best -> any
`

// TestDecideBatchMatchesOneAtATime is the engine-level batch differential:
// every packet of a batch gets the ID and OK a twin engine gives it when it
// decides the same packets one DecideBatch call each. It runs a tail-free
// program and a tail program over 1, 2, 3, 4 and 6 shards (non-power-of-two
// counts steer by a divide), at batch sizes 1 to 1024, each size three times:
// every packet asking one output, mixed outputs, and mixed outputs with
// invalid ones. A write lands between batches. The failed counter must count
// exactly the invalid packets, the shards' decision and empty-decision
// counters the rest, and no write may rebuild a replica.
func TestDecideBatchMatchesOneAtATime(t *testing.T) {
	for _, src := range []string{lb.PolicyResourceAware, drillTailSrc} {
		for _, shards := range []int{1, 2, 3, 4, 6} {
			batchDifferential(t, src, shards)
		}
	}
}

func batchDifferential(t *testing.T, src string, shards int) {
	pol := policy.MustParse(src)
	name := fmt.Sprintf("%s, %d shards", pol.Name, shards)
	nOut := len(pol.Outputs)
	newEngine := func() *Engine {
		e, err := New(Config{Shards: shards, Capacity: 64, Schema: lb.Schema, Policy: pol, Telemetry: telemetry.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(e.Close)
		fillRandom(t, e, 64, 31)
		return e
	}
	bat, one := newEngine(), newEngine()
	r := rand.New(rand.NewSource(int64(shards)))
	for _, n := range []int{1, 2, 3, 5, 64, 255, 1024} {
		for kind, what := range []string{"one output", "mixed outputs", "invalid outputs"} {
			pkts := make([]Packet, n)
			focus := r.Intn(nOut)
			var wantFailed uint64
			for i := range pkts {
				pkts[i] = Packet{Key: r.Uint64(), Out: focus, ID: 99, OK: true}
				if kind > 0 {
					pkts[i].Out = r.Intn(nOut)
				}
				if kind == 2 && r.Intn(8) == 0 {
					pkts[i].Out = []int{-1, nOut}[r.Intn(2)]
				}
				if pkts[i].Out < 0 || pkts[i].Out >= nOut {
					wantFailed++
				}
			}
			twin := append([]Packet(nil), pkts...)
			failed := bat.failedCtr.Value()
			decided, empty := shardCounts(bat)
			bat.DecideBatch(pkts)
			for i := range twin {
				one.DecideBatch(twin[i : i+1])
			}
			for i := range pkts {
				if pkts[i].ID != twin[i].ID || pkts[i].OK != twin[i].OK {
					t.Fatalf("%s, batch of %d (%s): packet %d (key %#x, out %d) got (%d,%v), one at a time (%d,%v)",
						name, n, what, i, pkts[i].Key, pkts[i].Out, pkts[i].ID, pkts[i].OK, twin[i].ID, twin[i].OK)
				}
			}
			if got := bat.failedCtr.Value() - failed; got != wantFailed {
				t.Fatalf("%s, batch of %d (%s): failed counter moved %d, want %d", name, n, what, got, wantFailed)
			}
			var wantEmpty uint64
			for i := range pkts {
				if !pkts[i].OK {
					wantEmpty++
				}
			}
			wantEmpty -= wantFailed
			if d, e := shardCounts(bat); d-decided != uint64(n)-wantFailed || e-empty != wantEmpty {
				t.Fatalf("%s, batch of %d (%s): shard counters moved %d decided, %d empty; want %d, %d",
					name, n, what, d-decided, e-empty, uint64(n)-wantFailed, wantEmpty)
			}
			id, vals := r.Intn(64), []int64{int64(r.Intn(100)), int64(r.Intn(8192)), int64(r.Intn(10000))}
			for _, e := range []*Engine{bat, one} {
				if err := e.Upsert(id, vals); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	if n := bat.rebuilds.Value(); n != 0 {
		t.Fatalf("%s: %d replica rebuilds on a healthy engine, want 0", name, n)
	}
}

// shardCounts sums the engine's per-shard decision and empty-decision
// counters.
func shardCounts(e *Engine) (decided, empty uint64) {
	for _, s := range e.shards {
		decided += s.decCtr.Value()
		empty += s.emptyCtr.Value()
	}
	return decided, empty
}
