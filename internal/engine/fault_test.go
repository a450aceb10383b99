package engine

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/smbm"
)

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

// TestEngineCloseDuringWrite: a write that passed its closed check before
// Close began still reaches every replica, and Close returns without waiting
// for it. The write holds wmu while it takes the shard locks one by one, so
// Close must take each shard lock without wmu. The writer here is broadcast's
// body after its closed check, stalled where a write holds wmu and no shard
// lock: a Close that took wmu under a shard's lock would hold that lock
// waiting for wmu while the write waited for the lock.
func TestEngineCloseDuringWrite(t *testing.T) {
	e, err := New(Config{Shards: 2, Capacity: 32, Schema: testSchema, Policy: policy.MustParse(minPolicySrc)})
	if err != nil {
		t.Fatal(err)
	}
	fillRandom(t, e, 8, 2)
	entered := make(chan struct{})
	wrote := make(chan error, 1)
	go func() {
		e.wmu.Lock()
		defer e.wmu.Unlock()
		close(entered)
		for !e.closed.Load() {
			runtime.Gosched()
		}
		time.Sleep(20 * time.Millisecond) // Close is at the shard locks by now
		for _, s := range e.shards {
			if err := s.write(func(tb *smbm.SMBM) error { return tb.Update(0, []int64{1, 2, 3}) }); err != nil {
				wrote <- err
				return
			}
		}
		wrote <- nil
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
	for si := range e.shards {
		if got := e.shardMetrics(si, 0); !slices.Equal(got, []int64{1, 2, 3}) {
			t.Fatalf("shard %d holds id 0 = %v, want [1 2 3]", si, got)
		}
	}
}
