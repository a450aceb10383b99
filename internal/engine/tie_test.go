package engine

import (
	"testing"

	"repro/internal/smbm"
)

// TestResyncKeepsTieOrder: an SMBM dimension breaks ties first-in-first-out
// (§5.1.2), so every replica must rank equal values in the order the
// authority wrote them. A resynced shard included: rebuilding it by replaying
// the authority's rows in id order ranks the ties by id instead, and that
// shard then answers min(table, cpu) differently from its peers. Such an
// order-only divergence must also fail CheckSync and VerifyReplicas.
func TestResyncKeepsTieOrder(t *testing.T) {
	e := newTestEngine(t, 2, minPolicySrc)
	// Id 7 reaches cpu=5 before id 3 does, so 7 ranks first among the ties.
	for _, w := range []struct {
		id  int
		cpu int64
	}{{3, 9}, {7, 5}, {1, 50}, {3, 5}} {
		if err := e.Upsert(w.id, []int64{w.cpu, 0, 0}); err != nil {
			t.Fatal(err)
		}
	}
	// decideOn returns the id shard si picks: with every shard healthy,
	// key si steers to shard si.
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

	// Corrupt shard 1, let the scrubber quarantine it and the resync rebuild
	// it from the authority.
	if err := e.CorruptReplica(1, 1); err != nil {
		t.Fatal(err)
	}
	if n := e.VerifyReplicas(); n != 1 {
		t.Fatalf("VerifyReplicas quarantined %d shards, want 1", n)
	}
	waitHealth(t, e, 1, Healthy)
	if err := e.CheckSync(); err != nil {
		t.Fatalf("CheckSync after resync: %v", err)
	}
	allPick("after the resync", 7)
	st := e.Introspect()
	if v := st.Shards[1].TableVersion; v != st.AuthVersion {
		t.Errorf("resynced shard table version %d, authority %d", v, st.AuthVersion)
	}

	// Rewrite id 7 with its own values on shard 1 alone: shard 1 holds the
	// authority's rows but now ranks 3 before 7.
	e.wmu.Lock()
	err := e.shards[1].write(func(t *smbm.SMBM) error { return t.Update(7, []int64{5, 0, 0}) })
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
	if n := e.VerifyReplicas(); n != 1 {
		t.Fatalf("VerifyReplicas quarantined %d shards for an order-only divergence, want 1", n)
	}
	waitHealth(t, e, 1, Healthy)
	allPick("after the second resync", 7)
}
