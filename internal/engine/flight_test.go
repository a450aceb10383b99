package engine

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/policy"
	"repro/internal/smbm"
	"repro/internal/telemetry"
)

// TestEngineFlightAndQuarantineHook: a write that finds a diverged replica
// and rebuilds it must land an EventQuarantine in the flight ring and fire
// the OnQuarantine callback (with the shard index and cause); a policy
// hot-swap must land an EventSwap. Introspect must then report every shard at
// the authority's version and size.
func TestEngineFlightAndQuarantineHook(t *testing.T) {
	flight := telemetry.NewSpanRing("engine", 64)
	type quar struct {
		shard int
		cause error
	}
	quarCh := make(chan quar, 1)
	e, err := New(Config{
		Shards:   2,
		Capacity: 64,
		Schema:   testSchema,
		Policy:   policy.MustParse(minPolicySrc),
		Flight:   flight,
		OnQuarantine: func(shard int, cause error) {
			quarCh <- quar{shard, cause}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	fillRandom(t, e, 16, 3)

	if err := e.corruptReplica(1, 4); err != nil {
		t.Fatal(err)
	}
	if err := e.Update(4, []int64{9, 9, 9}); !errors.Is(err, smbm.ErrReplicaDivergence) {
		t.Fatalf("Update err = %v, want ErrReplicaDivergence", err)
	}
	q := <-quarCh
	if q.shard != 1 || q.cause == nil || !strings.Contains(q.cause.Error(), "4") {
		t.Fatalf("OnQuarantine got shard=%d cause=%v", q.shard, q.cause)
	}

	if err := e.SwapPolicy(policy.MustParse(minPolicySrc)); err != nil {
		t.Fatal(err)
	}

	var sawQuar, sawSwap bool
	for _, sp := range flight.Snapshot() {
		switch sp.Kind {
		case telemetry.EventQuarantine:
			sawQuar = true
			if sp.Arg != 1 {
				t.Errorf("EventQuarantine arg = %d, want shard 1", sp.Arg)
			}
		case telemetry.EventSwap:
			sawSwap = true
		}
	}
	if !sawQuar || !sawSwap {
		t.Fatalf("flight ring missing events: quarantine=%v swap=%v", sawQuar, sawSwap)
	}

	st := e.Introspect()
	if len(st.Shards) != 2 {
		t.Fatalf("Introspect after the rebuild = %+v, want 2 shards", st)
	}
	for si, ss := range st.Shards {
		if ss.TableVersion != st.AuthVersion || ss.TableSize != st.Resources {
			t.Errorf("shard %d version=%d size=%d, authority version=%d resources=%d",
				si, ss.TableVersion, ss.TableSize, st.AuthVersion, st.Resources)
		}
	}
	if st.AuthVersion == 0 || st.Resources != 16 {
		t.Errorf("auth_version=%d resources=%d, want nonzero/16", st.AuthVersion, st.Resources)
	}
}
