package engine

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/smbm"
	"repro/internal/telemetry"
)

// corruptReplica deletes id from shard si's table alone, leaving the
// authoritative table untouched: the stand-in for a replica whose table
// memory no longer matches the control plane (a bit flip, a missed update).
// The divergence stays latent until a write touches id.
func (e *Engine) corruptReplica(si, id int) error {
	e.wmu.Lock()
	defer e.wmu.Unlock()
	return e.shards[si].write(func(t *smbm.SMBM) error { return t.Delete(id) })
}

// TestResyncKeepsTieOrder: an SMBM dimension breaks ties first-in-first-out
// (§5.1.2), so every replica must rank equal values in the order the
// authority wrote them — a shard rebuilt from the authority included:
// rebuilding it by replaying the authority's rows in id order ranks the ties
// by id instead, and that shard then answers min(table, cpu) differently
// from its peers.
//
// A membership-only divergence (shard 1 loses id 1) is found by the next
// write to id 1, which rebuilds shard 1 inline and reports
// ErrReplicaDivergence. An order-only divergence (shard 1 ranks 3 before 7)
// fails CheckSync and is mended by the same rebuild. Each rebuild moves the
// rebuild counter by one, and each one a write finds calls OnQuarantine once,
// after the writer lock is released: the hook calls Size, which takes it.
func TestResyncKeepsTieOrder(t *testing.T) {
	reg := telemetry.NewRegistry()
	var (
		e       *Engine
		hookMu  sync.Mutex
		hookLog []string
	)
	e, err := New(Config{
		Shards:    2,
		Capacity:  64,
		Schema:    testSchema,
		Policy:    policy.MustParse(minPolicySrc),
		Telemetry: reg,
		OnQuarantine: func(si int, cause error) {
			size := e.Size()
			hookMu.Lock()
			defer hookMu.Unlock()
			hookLog = append(hookLog, fmt.Sprintf("shard %d, size %d, divergence %v", si, size, cause != nil))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.Close)
	hooks := func() string {
		hookMu.Lock()
		defer hookMu.Unlock()
		return fmt.Sprint(hookLog)
	}
	rebuilds := func() uint64 { return snapCounter(t, reg.Snapshot(), "thanos_engine_shards_quarantined_total") }

	// Id 7 reaches cpu=5 before id 3 does, so 7 ranks first among the ties.
	for _, w := range []struct {
		id  int
		cpu int64
	}{{3, 9}, {7, 5}, {1, 50}, {3, 5}} {
		if err := e.Upsert(w.id, []int64{w.cpu, 0, 0}); err != nil {
			t.Fatal(err)
		}
	}
	// decideOn returns the id shard si picks: key si steers to shard si.
	decideOn := func(si int) int {
		pkt := []Packet{{Key: uint64(si)}}
		e.DecideBatch(pkt)
		return pkt[0].ID
	}
	allPick := func(stage string, want int) {
		t.Helper()
		for si := range e.shards {
			if got := decideOn(si); got != want {
				t.Fatalf("%s: shard %d picks %d, want %d", stage, si, got, want)
			}
		}
	}
	allPick("before the fault", 7)
	if n := rebuilds(); n != 0 {
		t.Fatalf("%d rebuilds on a healthy engine, want 0", n)
	}

	// Membership-only: shard 1 loses id 1, and the next write to id 1 finds
	// it. If OnQuarantine ran under the writer lock, its Size would deadlock
	// the write.
	if err := e.corruptReplica(1, 1); err != nil {
		t.Fatal(err)
	}
	wrote := make(chan error, 1)
	go func() { wrote <- e.Update(1, []int64{50, 0, 0}) }()
	select {
	case err := <-wrote:
		if !errors.Is(err, smbm.ErrReplicaDivergence) {
			t.Fatalf("write to the lost id: err = %v, want ErrReplicaDivergence", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a write that rebuilt a shard never returned: OnQuarantine runs under the writer lock")
	}
	if err := e.CheckSync(); err != nil {
		t.Fatalf("CheckSync after the rebuild: %v", err)
	}
	allPick("after the membership rebuild", 7)
	st := e.Introspect()
	if v := st.Shards[1].TableVersion; v != st.AuthVersion {
		t.Errorf("rebuilt shard table version %d, authority %d", v, st.AuthVersion)
	}
	if n := rebuilds(); n != 1 {
		t.Fatalf("%d rebuilds after one divergence, want 1", n)
	}
	if got, want := hooks(), "[shard 1, size 3, divergence true]"; got != want {
		t.Fatalf("OnQuarantine calls %s, want %s", got, want)
	}

	// Order-only: rewrite id 7 with its own values on shard 1 alone, so
	// shard 1 holds the authority's rows but ranks 3 before 7.
	e.wmu.Lock()
	err = e.shards[1].write(func(t *smbm.SMBM) error { return t.Update(7, []int64{5, 0, 0}) })
	e.wmu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if got := decideOn(1); got != 3 {
		t.Fatalf("reordered shard picks %d, want 3", got)
	}
	if err := e.CheckSync(); err == nil {
		t.Fatal("CheckSync passes a replica whose tie order differs from the authority's")
	}
	e.wmu.Lock()
	e.rebuild(1)
	e.wmu.Unlock()
	if err := e.CheckSync(); err != nil {
		t.Fatalf("CheckSync after the order rebuild: %v", err)
	}
	allPick("after the order rebuild", 7)
	if n := rebuilds(); n != 2 {
		t.Fatalf("%d rebuilds after two, want 2", n)
	}
	if got, want := hooks(), "[shard 1, size 3, divergence true]"; got != want {
		t.Fatalf("OnQuarantine calls %s after a rebuild no write found, want %s", got, want)
	}
}
