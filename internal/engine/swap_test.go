package engine

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/telemetry"
)

const maxPolicySrc = `
policy maxtest
out best = max(table, cpu)
`

// twoOutSrc has two outputs where minPolicySrc has one, so swapping between
// them exercises the output-count change path.
const twoOutSrc = `
policy twotest
out lo = min(table, cpu)
out hi = max(table, cpu)
`

// TestSwapPolicyChangesDecisions proves a hot-swap takes effect: the same
// table answers min before the swap and max after, on every shard.
func TestSwapPolicyChangesDecisions(t *testing.T) {
	e := newTestEngine(t, 4, minPolicySrc)
	for id, cpu := range []int64{30, 10, 50, 20} {
		if err := e.Add(id, []int64{cpu, 0, 0}); err != nil {
			t.Fatal(err)
		}
	}
	pkts := make([]Packet, 32)
	for i := range pkts {
		pkts[i] = Packet{Key: uint64(i)}
	}
	e.DecideBatch(pkts)
	for i := range pkts {
		if !pkts[i].OK || pkts[i].ID != 1 { // min cpu = 10 at id 1
			t.Fatalf("pre-swap packet %d: (%d,%v), want (1,true)", i, pkts[i].ID, pkts[i].OK)
		}
	}
	if err := e.SwapPolicy(policy.MustParse(maxPolicySrc)); err != nil {
		t.Fatal(err)
	}
	e.DecideBatch(pkts)
	for i := range pkts {
		if !pkts[i].OK || pkts[i].ID != 2 { // max cpu = 50 at id 2
			t.Fatalf("post-swap packet %d: (%d,%v), want (2,true)", i, pkts[i].ID, pkts[i].OK)
		}
	}
	if e.Policy().Name != "maxtest" {
		t.Fatalf("Policy() = %q after swap", e.Policy().Name)
	}
	// Table writes after the swap propagate through the rewrapped snapshots.
	if err := e.Add(9, []int64{99, 0, 0}); err != nil {
		t.Fatal(err)
	}
	e.DecideBatch(pkts)
	for i := range pkts {
		if pkts[i].ID != 9 {
			t.Fatalf("post-swap post-write packet %d: id %d, want 9", i, pkts[i].ID)
		}
	}
	if err := e.CheckSync(); err != nil {
		t.Fatal(err)
	}
}

// TestSwapPolicyValidation: a bad policy must be rejected atomically, the
// old policy keeps serving everywhere.
func TestSwapPolicyValidation(t *testing.T) {
	e := newTestEngine(t, 2, minPolicySrc)
	if err := e.Add(0, []int64{5, 0, 0}); err != nil {
		t.Fatal(err)
	}
	bad := policy.MustParse("policy bad\nout o = min(table, nosuchattr)")
	if err := e.SwapPolicy(bad); err == nil {
		t.Fatal("swap to policy with unknown attribute accepted")
	}
	if err := e.SwapPolicy(nil); err == nil {
		t.Fatal("swap to nil policy accepted")
	}
	if id, ok := e.Decide(); !ok || id != 0 {
		t.Fatalf("decide after rejected swap: (%d,%v)", id, ok)
	}
	if e.Policy().Name != "mintest" {
		t.Fatalf("policy replaced by rejected swap: %q", e.Policy().Name)
	}
}

// TestSwapPolicyOutputCountShrink: packets addressing an output that the
// swapped-in policy no longer has degrade to (-1,false); valid outputs keep
// working. Exercises the output check against the pinned snapshot's policy.
func TestSwapPolicyOutputCountShrink(t *testing.T) {
	e := newTestEngine(t, 2, twoOutSrc)
	for id, cpu := range []int64{30, 10, 50} {
		if err := e.Add(id, []int64{cpu, 0, 0}); err != nil {
			t.Fatal(err)
		}
	}
	pkts := []Packet{{Key: 1, Out: 0}, {Key: 2, Out: 1}}
	e.DecideBatch(pkts)
	if pkts[0].ID != 1 || pkts[1].ID != 2 {
		t.Fatalf("two-output decisions: (%d,%d), want (1,2)", pkts[0].ID, pkts[1].ID)
	}
	if err := e.SwapPolicy(policy.MustParse(minPolicySrc)); err != nil {
		t.Fatal(err)
	}
	e.DecideBatch(pkts)
	if pkts[0].ID != 1 || !pkts[0].OK {
		t.Fatalf("output 0 after shrink: (%d,%v)", pkts[0].ID, pkts[0].OK)
	}
	if pkts[1].OK || pkts[1].ID != -1 {
		t.Fatalf("dropped output 1 after shrink: (%d,%v), want (-1,false)", pkts[1].ID, pkts[1].OK)
	}
}

// TestSwapPolicyAfterClose degrades like every other control-plane write.
func TestSwapPolicyAfterClose(t *testing.T) {
	e := newTestEngine(t, 1, minPolicySrc)
	e.Close()
	if err := e.SwapPolicy(policy.MustParse(maxPolicySrc)); !errors.Is(err, ErrClosed) {
		t.Fatalf("SwapPolicy after Close: %v, want ErrClosed", err)
	}
}

// TestSwapPolicyConcurrentDecides hammers DecideBatch from several
// goroutines while policies flip between min and max, with table writes
// interleaved. Every decision must be one of the two policies' answers —
// never a torn or stale-table result — and the engine must stay in sync.
//
// The one-shard case is the writer half of the liveness pair (its mirror is
// TestEngineConcurrentDecideAndWriteOracle): four callers keep the only shard
// lock busy with back-to-back batches, and 100 swaps and 200 writes must all
// get through it inside the wall bound. Nothing spins for them any more;
// sync.Mutex's starvation hand-off is what lets a writer in.
func TestSwapPolicyConcurrentDecides(t *testing.T) {
	t.Run("shards=4", func(t *testing.T) { swapPolicyConcurrentDecides(t, 4) })
	t.Run("shards=1", func(t *testing.T) { swapPolicyConcurrentDecides(t, 1) })
}

func swapPolicyConcurrentDecides(t *testing.T, shards int) {
	e := newTestEngine(t, shards, minPolicySrc)
	// cpu values chosen so min and max ids are stable: id 1 is always min,
	// id 2 always max.
	for id, cpu := range []int64{500, 100, 900} {
		if err := e.Add(id, []int64{cpu, 0, 0}); err != nil {
			t.Fatal(err)
		}
	}
	minPol := policy.MustParse(minPolicySrc)
	maxPol := policy.MustParse(maxPolicySrc)
	var stop atomic.Bool
	var batches atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			pkts := make([]Packet, 64)
			for !stop.Load() {
				for i := range pkts {
					pkts[i] = Packet{Key: uint64(g*64 + i)}
				}
				e.DecideBatch(pkts)
				batches.Add(1)
				for i := range pkts {
					if !pkts[i].OK || (pkts[i].ID != 1 && pkts[i].ID != 2) {
						t.Errorf("mid-swap decision: (%d,%v)", pkts[i].ID, pkts[i].OK)
						stop.Store(true)
						return
					}
				}
			}
		}(g)
	}
	start := time.Now()
	for i := 0; i < 100 && !stop.Load(); i++ {
		// Every so often let the deciders in first, so that on one CPU too
		// the rounds that follow start beside a caller holding a shard lock.
		if i%20 == 0 {
			for n := batches.Load(); batches.Load() == n && !stop.Load(); {
				runtime.Gosched()
			}
		}
		pol := minPol
		if i%2 == 0 {
			pol = maxPol
		}
		if err := e.SwapPolicy(pol); err != nil {
			t.Error(err)
			break
		}
		// Interleave writes so swaps and row operations contend for the lock.
		id := 40 + i%10
		if err := e.Add(id, []int64{700, 0, 0}); err != nil {
			t.Error(err)
			break
		}
		if err := e.Delete(id); err != nil {
			t.Error(err)
			break
		}
	}
	if d := time.Since(start); d > time.Minute {
		t.Errorf("100 swaps and 200 writes needed %v beside the deciders; writers are being starved", d)
	}
	stop.Store(true)
	wg.Wait()
	if err := e.CheckSync(); err != nil {
		t.Fatal(err)
	}
}

// TestSwapPolicyTelemetry: the swap counter moves, and chain telemetry
// detaches cleanly when the program shape changes (no panic, counters for
// decisions keep counting).
func TestSwapPolicyTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	e, err := New(Config{Shards: 2, Capacity: 16, Schema: testSchema,
		Policy: policy.MustParse(minPolicySrc), Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.Add(0, []int64{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := e.SwapPolicy(policy.MustParse(twoOutSrc)); err != nil {
		t.Fatal(err)
	}
	if id, ok := e.Decide(); !ok || id != 0 {
		t.Fatalf("decide after telemetry swap: (%d,%v)", id, ok)
	}
	snap := reg.Snapshot()
	if got := snap["thanos_engine_policy_swaps_total"].(uint64); got != 1 {
		t.Fatalf("policy_swaps_total = %d, want 1", got)
	}
	if got := snap["thanos_engine_decisions_total"].(uint64); got == 0 {
		t.Fatal("decisions_total did not move after swap")
	}
	// A rebuild after the swap must bind the swapped-in policy (and must not
	// panic re-attaching mismatched chain telemetry).
	if err := e.corruptReplica(0, 0); err != nil {
		t.Fatal(err)
	}
	if err := e.Update(0, []int64{9, 9, 9}); err == nil {
		t.Fatal("write touching corrupted id did not report divergence")
	}
	if got := e.shards[0].mod.Policy; got != e.Policy() {
		t.Fatalf("rebuilt shard runs policy %q, want the swapped-in %q", got.Name, e.Policy().Name)
	}
	if err := e.CheckSync(); err != nil {
		t.Fatal(err)
	}
}
