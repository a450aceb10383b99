package engine

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/policy"
	"repro/internal/smbm"
	"repro/internal/telemetry"
)

// TestEngineFlightAndQuarantineHook: a detected divergence must land an
// EventQuarantine in the flight ring and fire the OnQuarantine callback
// (off-lock, with the shard index and cause); the completed resync must land
// an EventResync; a policy hot-swap must land an EventSwap. Introspect must
// report the quarantine while it lasts and full health afterwards.
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

	if err := e.CorruptReplica(1, 4); err != nil {
		t.Fatal(err)
	}
	if err := e.Update(4, []int64{9, 9, 9}); !errors.Is(err, smbm.ErrReplicaDivergence) {
		t.Fatalf("Update err = %v, want ErrReplicaDivergence", err)
	}
	q := <-quarCh
	if q.shard != 1 || q.cause == nil {
		t.Fatalf("OnQuarantine got shard=%d cause=%v", q.shard, q.cause)
	}
	waitHealth(t, e, 1, Healthy)

	if err := e.SwapPolicy(policy.MustParse(minPolicySrc)); err != nil {
		t.Fatal(err)
	}

	var sawQuar, sawResync, sawSwap bool
	for _, sp := range flight.Snapshot() {
		switch sp.Kind {
		case telemetry.EventQuarantine:
			sawQuar = true
			if sp.Arg != 1 {
				t.Errorf("EventQuarantine arg = %d, want shard 1", sp.Arg)
			}
		case telemetry.EventResync:
			sawResync = true
		case telemetry.EventSwap:
			sawSwap = true
		}
	}
	if !sawQuar || !sawResync || !sawSwap {
		t.Fatalf("flight ring missing events: quarantine=%v resync=%v swap=%v",
			sawQuar, sawResync, sawSwap)
	}

	st := e.Introspect()
	if len(st.Shards) != 2 || st.Live != 2 {
		t.Fatalf("Introspect after resync = %+v, want 2 healthy shards", st)
	}
	for si, ss := range st.Shards {
		if ss.Health != "healthy" {
			t.Errorf("shard %d health = %q after resync", si, ss.Health)
		}
		if ss.TableVersion == 0 || ss.TableSize != st.Resources {
			t.Errorf("shard %d version=%d size=%d, resources=%d",
				si, ss.TableVersion, ss.TableSize, st.Resources)
		}
	}
	if st.Shards[1].LastErr == "" || !strings.Contains(st.Shards[1].LastErr, "4") {
		t.Errorf("shard 1 last_err = %q, want the recorded divergence", st.Shards[1].LastErr)
	}
	if st.Shards[0].LastErr != "" {
		t.Errorf("shard 0 last_err = %q, want empty", st.Shards[0].LastErr)
	}
	if st.AuthVersion == 0 || st.Resources != 16 {
		t.Errorf("auth_version=%d resources=%d, want nonzero/16", st.AuthVersion, st.Resources)
	}
}

// TestEngineIntrospectDuringQuarantine: while a shard is held out of the
// serving set, Introspect must show it quarantined and Live must exclude it.
func TestEngineIntrospectDuringQuarantine(t *testing.T) {
	e, err := New(Config{
		Shards:   2,
		Capacity: 64,
		Schema:   testSchema,
		Policy:   policy.MustParse(minPolicySrc),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	fillRandom(t, e, 8, 5)
	hold := make(chan struct{})
	e.resyncHold = hold
	if err := e.CorruptReplica(0, 2); err != nil {
		t.Fatal(err)
	}
	if err := e.Update(2, []int64{1, 1, 1}); !errors.Is(err, smbm.ErrReplicaDivergence) {
		t.Fatalf("Update err = %v", err)
	}
	st := e.Introspect()
	if st.Live != 1 {
		t.Fatalf("Live = %d during quarantine, want 1", st.Live)
	}
	if h := st.Shards[0].Health; h != "quarantined" {
		t.Fatalf("shard 0 health = %q, want quarantined", h)
	}
	close(hold)
	waitHealth(t, e, 0, Healthy)
}
