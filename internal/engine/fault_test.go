package engine

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/smbm"
	"repro/internal/telemetry"
)

// waitHealth polls until shard si reaches want or the deadline passes.
func waitHealth(t *testing.T, e *Engine, si int, want ShardHealth) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if e.Health(si) == want {
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
	t.Fatalf("shard %d stuck in %s, want %s", si, e.Health(si), want)
}

// TestEngineQuarantineAndResync is the headline regression test for the
// former divergence panic: corrupting one shard's replicas must quarantine
// only that shard — DecideBatch keeps serving every packet from the healthy
// shards — and the background resync must rebuild it and return it to
// service, all visible in telemetry and without a single panic.
func TestEngineQuarantineAndResync(t *testing.T) {
	reg := telemetry.NewRegistry()
	e, err := New(Config{
		Shards:    4,
		Capacity:  64,
		Schema:    testSchema,
		Policy:    policy.MustParse(minPolicySrc),
		Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	fillRandom(t, e, 32, 11)

	// Hold the shard in quarantine until the degraded-service assertions
	// below have run; without this the background resync can win the race
	// and heal the shard before we observe the quarantine window.
	hold := make(chan struct{})
	e.resyncHold = hold

	// Silently corrupt shard 2: its table loses id 5 while the
	// authoritative table keeps it.
	if err := e.CorruptReplica(2, 5); err != nil {
		t.Fatal(err)
	}
	// The next write touching id 5 detects the divergence. It must report,
	// not panic, and it must still land on the healthy shards.
	err = e.Update(5, []int64{1, 2, 3})
	if !errors.Is(err, smbm.ErrReplicaDivergence) {
		t.Fatalf("Update on corrupted shard: err = %v, want ErrReplicaDivergence", err)
	}
	if got := e.Health(2); got == Healthy {
		t.Fatal("shard 2 still healthy after detected divergence")
	}
	if err := e.LastShardError(2); err == nil {
		t.Error("LastShardError(2) = nil, want the divergence")
	}

	// While shard 2 is out, every packet — including those homed on shard 2
	// — must still be decided by the healthy shards.
	pkts := make([]Packet, 1024)
	for i := range pkts {
		pkts[i] = Packet{Key: uint64(i)}
	}
	e.DecideBatch(pkts)
	for i, p := range pkts {
		if !p.OK {
			t.Fatalf("packet %d undecided during quarantine", i)
		}
	}

	// Release the shard: it resyncs from the authoritative table and
	// rejoins; afterwards the whole engine is back in sync (CheckSync covers
	// healthy shards, and all four must be healthy again).
	close(hold)
	waitHealth(t, e, 2, Healthy)
	if err := e.CheckSync(); err != nil {
		t.Fatalf("CheckSync after resync: %v", err)
	}
	if got := e.HealthyShards(); got != 4 {
		t.Fatalf("HealthyShards() = %d after resync, want 4", got)
	}
	if vals, ok := e.Metrics(5); !ok || vals[0] != 1 {
		t.Fatalf("authoritative metrics for id 5 = %v,%v", vals, ok)
	}

	snap := reg.Snapshot()
	if got := snap["thanos_engine_shards_quarantined_total"].(uint64); got != 1 {
		t.Errorf("shards_quarantined_total = %d, want 1", got)
	}
	if got := snap["thanos_engine_resyncs_completed_total"].(uint64); got != 1 {
		t.Errorf("resyncs_completed_total = %d, want 1", got)
	}
	if got := snap["thanos_engine_failover_decisions_total"].(uint64); got == 0 {
		t.Error("failover_decisions_total did not advance during quarantine")
	}
	if got := snap["thanos_engine_quarantined_shards"].(int64); got != 0 {
		t.Errorf("quarantined_shards gauge = %d after resync, want 0", got)
	}
}

// TestEngineVerifyReplicasDetectsSilentCorruption: corruption that no write
// touches is invisible to the broadcast path; the scrubber must find and
// quarantine it.
func TestEngineVerifyReplicasDetectsSilentCorruption(t *testing.T) {
	e := newTestEngine(t, 3, minPolicySrc)
	fillRandom(t, e, 16, 9)
	if n := e.VerifyReplicas(); n != 0 {
		t.Fatalf("clean engine: VerifyReplicas() = %d, want 0", n)
	}
	if err := e.CorruptReplica(0, 7); err != nil {
		t.Fatal(err)
	}
	if n := e.VerifyReplicas(); n != 1 {
		t.Fatalf("VerifyReplicas() = %d, want 1", n)
	}
	waitHealth(t, e, 0, Healthy)
	if err := e.CheckSync(); err != nil {
		t.Fatal(err)
	}
}

// TestEngineAllShardsQuarantined: with every shard out, batches degrade to
// OK=false rather than blocking or panicking, and service resumes once the
// shards resync.
func TestEngineAllShardsQuarantined(t *testing.T) {
	e, err := New(Config{Shards: 2, Capacity: 32, Schema: testSchema, Policy: policy.MustParse(minPolicySrc)})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	fillRandom(t, e, 8, 5)
	// Hold both shards out so the total-outage window is observable.
	hold := make(chan struct{})
	e.resyncHold = hold
	for si := 0; si < 2; si++ {
		if err := e.CorruptReplica(si, 0); err != nil {
			t.Fatal(err)
		}
	}
	if n := e.VerifyReplicas(); n != 2 {
		t.Fatalf("VerifyReplicas() = %d, want 2", n)
	}
	if got := e.HealthyShards(); got != 0 {
		t.Fatalf("HealthyShards() = %d with every shard corrupted, want 0", got)
	}
	pkts := []Packet{{Key: 0}, {Key: 1}}
	e.DecideBatch(pkts)
	for i, p := range pkts {
		if p.OK || p.ID != -1 {
			t.Fatalf("packet %d decided with no healthy shard: (%d,%v)", i, p.ID, p.OK)
		}
	}
	close(hold)
	waitHealth(t, e, 0, Healthy)
	waitHealth(t, e, 1, Healthy)
	if id, ok := e.Decide(); !ok || id < 0 {
		t.Fatalf("Decide after full recovery: (%d,%v)", id, ok)
	}
}

// TestEngineCloseConcurrentDecideBatch is the shutdown-race regression test:
// Close racing in-flight DecideBatch callers must neither panic nor
// deadlock — packets either are decided or come back undecided — and a
// batch begun after Close returned comes back (-1,false) throughout. Run
// under -race (make check / check-fault).
func TestEngineCloseConcurrentDecideBatch(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		e, err := New(Config{Shards: 4, Capacity: 32, Schema: testSchema, Policy: policy.MustParse(minPolicySrc)})
		if err != nil {
			t.Fatal(err)
		}
		fillRandom(t, e, 8, int64(trial))
		var closeReturned atomic.Bool
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				pkts := make([]Packet, 64)
				for rep := 0; rep < 50; rep++ {
					for i := range pkts {
						pkts[i] = Packet{Key: uint64(g*1000 + i)}
					}
					late := closeReturned.Load()
					e.DecideBatch(pkts)
					for i, p := range pkts {
						// Either decided (pre-Close) or failed (post-Close);
						// never a stale in-between.
						if p.OK && p.ID < 0 {
							t.Errorf("packet %d: OK with negative id", i)
						}
						if late && (p.OK || p.ID != -1) {
							t.Errorf("packet %d: (%d,%v) from a batch begun after Close returned", i, p.ID, p.OK)
						}
					}
				}
			}(g)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			e.Close()
			closeReturned.Store(true)
		}()
		close(start)
		wg.Wait()
		e.Close()
	}
}

// TestEngineCloseWaitsForInflightDecision: Close returns only once the
// decisions already executing have finished. Holding a shard's lock stands
// in for a caller mid-visit on that shard.
func TestEngineCloseWaitsForInflightDecision(t *testing.T) {
	e, err := New(Config{Shards: 4, Capacity: 32, Schema: testSchema, Policy: policy.MustParse(minPolicySrc)})
	if err != nil {
		t.Fatal(err)
	}
	fillRandom(t, e, 8, 1)
	s := e.shards[2]
	s.mu.Lock()
	done := make(chan struct{})
	go func() {
		e.Close()
		close(done)
	}()
	for !e.closed.Load() {
		runtime.Gosched()
	}
	// Close has begun and cannot get past shard 2 while the lock is held.
	select {
	case <-done:
		s.mu.Unlock()
		t.Fatal("Close returned while a decision still held shard 2")
	default:
	}
	s.mu.Unlock()
	<-done
	pkts := []Packet{{Key: 0, ID: 7, OK: true}, {Key: 1}, {Key: 2}, {Key: 3}}
	e.DecideBatch(pkts)
	for i, p := range pkts {
		if p.OK || p.ID != -1 {
			t.Fatalf("packet %d after Close: (%d,%v), want (-1,false)", i, p.ID, p.OK)
		}
	}
}

// TestEngineCloseDuringResync: closing while a shard's resync is waiting to
// run must not hang Close. TestEngineCloseJoinsResync is the leak half.
func TestEngineCloseDuringResync(t *testing.T) {
	e, err := New(Config{Shards: 2, Capacity: 32, Schema: testSchema, Policy: policy.MustParse(minPolicySrc)})
	if err != nil {
		t.Fatal(err)
	}
	fillRandom(t, e, 8, 2)
	e.resyncHold = make(chan struct{}) // never released
	if err := e.CorruptReplica(1, 0); err != nil {
		t.Fatal(err)
	}
	if n := e.VerifyReplicas(); n != 1 {
		t.Fatalf("VerifyReplicas() = %d, want 1", n)
	}
	done := make(chan struct{})
	go func() {
		e.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Close hung waiting for a held resync")
	}
}

// TestEngineCloseJoinsResync: Close must not return while a resync goroutine
// is still running. The OnQuarantine callback runs on that goroutine; it
// holds it until Close has begun, then lingers, and Close must wait it out.
func TestEngineCloseJoinsResync(t *testing.T) {
	var (
		e        *Engine
		entered  = make(chan struct{})
		finished atomic.Bool
	)
	e, err := New(Config{
		Shards:   2,
		Capacity: 32,
		Schema:   testSchema,
		Policy:   policy.MustParse(minPolicySrc),
		OnQuarantine: func(int, error) {
			close(entered)
			<-e.closedCh
			time.Sleep(20 * time.Millisecond)
			finished.Store(true)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	fillRandom(t, e, 8, 2)
	if err := e.CorruptReplica(1, 0); err != nil {
		t.Fatal(err)
	}
	if n := e.VerifyReplicas(); n != 1 {
		t.Fatalf("VerifyReplicas() = %d, want 1", n)
	}
	<-entered
	e.Close()
	if !finished.Load() {
		t.Fatal("Close returned while the resync goroutine was still running")
	}
}

// TestEngineCloseDuringWrite: a write that passed its closed check before
// Close began still reaches every replica, and Close returns without waiting
// for it. The write holds wmu while it takes the shard locks one by one, so
// Close must take each shard lock without wmu.
func TestEngineCloseDuringWrite(t *testing.T) {
	e, err := New(Config{Shards: 2, Capacity: 32, Schema: testSchema, Policy: policy.MustParse(minPolicySrc)})
	if err != nil {
		t.Fatal(err)
	}
	fillRandom(t, e, 8, 2)
	entered := make(chan struct{})
	wrote := make(chan error, 1)
	go func() {
		wrote <- e.apply(func(tb *smbm.SMBM) error {
			if tb == e.auth {
				close(entered)
				<-e.closedCh
				time.Sleep(20 * time.Millisecond) // Close is at the shard locks by now
			}
			return tb.Update(0, []int64{1, 2, 3})
		})
	}()
	<-entered
	closed := make(chan struct{})
	go func() {
		e.Close()
		close(closed)
	}()
	deadline := time.After(10 * time.Second)
	select {
	case err := <-wrote:
		if err != nil {
			t.Fatalf("write in flight at Close: %v", err)
		}
	case <-deadline:
		t.Fatal("a write in flight at Close never finished")
	}
	select {
	case <-closed:
	case <-deadline:
		t.Fatal("Close hung behind a write in flight")
	}
	if err := e.CheckSync(); err != nil {
		t.Fatalf("after the write: %v", err)
	}
	if got, _ := e.Metrics(0); got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("Metrics(0) = %v, want [1 2 3]", got)
	}
}

// TestLastShardErrorDuringWrite: reading a shard's last divergence while a
// write is parked at the authority — holding wmu, about to take each shard's
// lock in turn — returns once the write finishes, and the write finishes.
// The write orders wmu before a shard's mu, so a reader that took a shard's
// mu and then waited for wmu would deadlock against it.
func TestLastShardErrorDuringWrite(t *testing.T) {
	e, err := New(Config{Shards: 2, Capacity: 32, Schema: testSchema, Policy: policy.MustParse(minPolicySrc)})
	if err != nil {
		t.Fatal(err)
	}
	fillRandom(t, e, 8, 2)
	entered, release := make(chan struct{}), make(chan struct{})
	wrote := make(chan error, 1)
	go func() {
		wrote <- e.apply(func(tb *smbm.SMBM) error {
			if tb == e.auth {
				close(entered)
				<-release
			}
			return tb.Update(0, []int64{1, 2, 3})
		})
	}()
	<-entered
	read := make(chan error, 1)
	go func() { read <- e.LastShardError(0) }()
	time.Sleep(20 * time.Millisecond) // the reader is at its locks by now
	close(release)
	deadline := time.After(10 * time.Second)
	for _, ch := range []chan error{wrote, read} {
		select {
		case err := <-ch:
			if err != nil {
				t.Fatalf("write or read beside each other: %v", err)
			}
		case <-deadline:
			t.Fatal("LastShardError and a write in flight deadlocked")
		}
	}
	if err := e.CheckSync(); err != nil {
		t.Fatalf("after the write: %v", err)
	}
	e.Close() // not deferred: after a deadlock, Close would wait on it
}
