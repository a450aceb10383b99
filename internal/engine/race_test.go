package engine

import (
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/policy"
	"repro/internal/smbm"
	"repro/internal/telemetry"
)

// TestEngineConcurrentDecideAndWrite hammers DecideBatch from several
// goroutines while a writer streams add/delete/update through the shard
// locks. Run under -race (make check does), this is the central data-race
// check for the one-table-per-shard discipline (writers: wmu + shard.mu,
// deciders: shard.mu); the invariant checks at the end catch replica
// divergence or torn writes.
func TestEngineConcurrentDecideAndWrite(t *testing.T) {
	e := newTestEngine(t, 4, testPolicySrc)
	fillRandom(t, e, 32, 3)

	const (
		readers          = 4
		batchesPerReader = 150
		writerOps        = 600
	)

	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			pkts := make([]Packet, 64)
			for b := 0; b < batchesPerReader; b++ {
				for i := range pkts {
					pkts[i] = Packet{Key: uint64(r.Uint32()), Out: r.Intn(2)}
				}
				e.DecideBatch(pkts)
				for i, p := range pkts {
					// The table always has ≥ 1 entry (the writer never
					// empties it), so the backup output guarantees a pick.
					if !p.OK || p.ID < 0 || p.ID >= 64 {
						t.Errorf("batch %d packet %d: bad decision (%d,%v)", b, i, p.ID, p.OK)
						return
					}
				}
			}
		}(int64(g + 1))
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		r := rand.New(rand.NewSource(99))
		present := make([]bool, 64)
		count := 0
		for id := 0; id < 32; id++ {
			present[id] = true
			count++
		}
		for op := 0; op < writerOps; op++ {
			id := r.Intn(64)
			vals := []int64{int64(r.Intn(100)), int64(r.Intn(8192)), int64(r.Intn(10000))}
			switch {
			case present[id] && count > 1 && r.Intn(3) == 0:
				if err := e.Delete(id); err != nil {
					t.Errorf("delete %d: %v", id, err)
					return
				}
				present[id] = false
				count--
			case present[id]:
				if err := e.Update(id, vals); err != nil {
					t.Errorf("update %d: %v", id, err)
					return
				}
			default:
				if err := e.Add(id, vals); err != nil {
					t.Errorf("add %d: %v", id, err)
					return
				}
				present[id] = true
				count++
			}
		}
	}()

	wg.Wait()
	if err := e.CheckSync(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckSyncBesideMinDecisions runs CheckSync beside min decisions right
// after an Add burst, when every shard table's position pointers are stale:
// the first min on a shard repairs them (SMBM.PosInDim) under the shard lock,
// and CheckSync's CheckInvariants repairs them too, so under -race this fails
// unless CheckSync takes each shard's lock as well as the writer lock.
func TestCheckSyncBesideMinDecisions(t *testing.T) {
	const (
		n        = 64
		rounds   = 20
		deciders = 2
		batches  = 8
	)
	e := newTestEngine(t, 2, minPolicySrc)
	r := rand.New(rand.NewSource(17))
	for round := 0; round < rounds; round++ {
		if round > 0 {
			for id := 0; id < n; id++ {
				if err := e.Delete(id); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Distinct cpu values, so min has one right answer.
		cpus := r.Perm(100)[:n]
		want := 0
		for id := n - 1; id >= 0; id-- {
			if err := e.Add(id, []int64{int64(cpus[id]), 0, 0}); err != nil {
				t.Fatal(err)
			}
			if cpus[id] < cpus[want] {
				want = id
			}
		}

		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < deciders; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				pkts := make([]Packet, 8)
				for b := 0; b < batches; b++ {
					for i := range pkts {
						pkts[i] = Packet{Key: uint64(b*len(pkts) + i)}
					}
					e.DecideBatch(pkts)
					for i, p := range pkts {
						if !p.OK || p.ID != want {
							t.Errorf("round %d packet %d: min picked (%d,%v), want %d", round, i, p.ID, p.OK, want)
							return
						}
					}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if err := e.CheckSync(); err != nil {
				t.Errorf("round %d: %v", round, err)
			}
		}()
		close(start)
		wg.Wait()
	}
}

// bothPolicySrc and bothAltPolicySrc are two programs of different shape
// that give the same two deterministic answers, so a decision is the same
// whichever of them a hot-swap has published.
const bothPolicySrc = `
policy both
out best  = min(table, cpu)
out worst = max(table, cpu)
`

const bothAltPolicySrc = `
policy bothalt
let all = filter(table, cpu >= 0)
out best  = min(all, cpu)
out worst = max(all, cpu)
`

// TestEngineConcurrentDecideAndWriteOracle runs several callers inside the
// engine at once — they execute on the shards themselves, so under -race at
// GOMAXPROCS ≥ 4 (make check-slow) they truly overlap — beside a
// table writer, a policy flipper and a corruptor that drops an id from one
// shard's table and then writes that id, which rebuilds the shard inline.
// The table pins its minimum to id 1 and its maximum to id 2 whatever the
// writer and the corruptor do, and both policies agree, so every decision has
// one right answer: the one a private, single-threaded, never-written oracle
// engine gives for the same packet. Every rebuild is one the corruptor caused.
//
// The one-shard case is the decider half of the liveness pair (its mirror is
// TestSwapPolicyConcurrentDecides): every caller meets the streaming writer,
// the flipper and the rebuilds on the same shard lock, and every DecideBatch
// must still return, oracle-correct, inside the wall bound.
func TestEngineConcurrentDecideAndWriteOracle(t *testing.T) {
	t.Run("shards=4", func(t *testing.T) { concurrentDecideAndWriteOracle(t, 4) })
	t.Run("shards=1", func(t *testing.T) { concurrentDecideAndWriteOracle(t, 1) })
}

func concurrentDecideAndWriteOracle(t *testing.T, shards int) {
	fillPinned := func(e *Engine) {
		for id, cpu := range []int64{500, 100, 900} {
			if err := e.Add(id, []int64{cpu, 0, 0}); err != nil {
				t.Fatal(err)
			}
		}
		for id := 3; id <= 10; id++ {
			if err := e.Add(id, []int64{700, 0, 0}); err != nil {
				t.Fatal(err)
			}
		}
	}
	e := newTelemetryEngine(t, shards, bothPolicySrc, telemetry.NewRegistry())
	fillPinned(e)

	const (
		callers          = 4
		batchesPerCaller = 200
	)
	var stop atomic.Bool
	var repairs atomic.Int32
	// Callers keep going until the corruptor has caused a few rebuilds,
	// bounded so a stuck corruptor fails instead of hanging.
	start := time.Now()
	deadline := start.Add(20 * time.Second)
	var callersWG, mutatorsWG sync.WaitGroup
	for g := 0; g < callers; g++ {
		oracle := newTestEngine(t, 1, bothPolicySrc)
		fillPinned(oracle)
		callersWG.Add(1)
		go func(seed int64) {
			defer callersWG.Done()
			r := rand.New(rand.NewSource(seed))
			pkts := make([]Packet, 64)
			want := make([]Packet, len(pkts))
			for b := 0; b < batchesPerCaller || (repairs.Load() < 3 && time.Now().Before(deadline)); b++ {
				for i := range pkts {
					pkts[i] = Packet{Key: r.Uint64(), Out: r.Intn(2)}
				}
				copy(want, pkts)
				e.DecideBatch(pkts)
				oracle.DecideBatch(want)
				for i := range pkts {
					if pkts[i] != want[i] {
						t.Errorf("batch %d packet %d: got %+v, oracle %+v", b, i, pkts[i], want[i])
						return
					}
				}
			}
		}(int64(g + 1))
	}

	// Writer: churn scratch ids whose cpu sits between the pinned extremes.
	mutatorsWG.Add(1)
	go func() {
		defer mutatorsWG.Done()
		r := rand.New(rand.NewSource(99))
		for !stop.Load() {
			id := 40 + r.Intn(10)
			for _, err := range []error{e.Add(id, []int64{600, 0, 0}), e.Delete(id)} {
				if err != nil && !errors.Is(err, smbm.ErrReplicaDivergence) {
					t.Errorf("writer: %v", err)
					return
				}
			}
		}
	}()
	// Flipper: hot-swap between the two equivalent programs.
	mutatorsWG.Add(1)
	go func() {
		defer mutatorsWG.Done()
		pols := []*policy.Policy{policy.MustParse(bothAltPolicySrc), policy.MustParse(bothPolicySrc)}
		for i := 0; !stop.Load(); i++ {
			if err := e.SwapPolicy(pols[i%2]); err != nil {
				t.Errorf("swap: %v", err)
				return
			}
		}
	}()
	// Corruptor: drop a mid-range id from one shard's table, then write that
	// id with its own values: the write finds the divergence and rebuilds the
	// shard from the authority.
	mutatorsWG.Add(1)
	go func() {
		defer mutatorsWG.Done()
		r := rand.New(rand.NewSource(7))
		for !stop.Load() {
			id := 3 + r.Intn(8)
			if err := e.corruptReplica(r.Intn(shards), id); err != nil {
				t.Errorf("corruptor: %v", err)
				return
			}
			if err := e.Update(id, []int64{700, 0, 0}); !errors.Is(err, smbm.ErrReplicaDivergence) {
				t.Errorf("corruptor: write to a lost id: err = %v, want ErrReplicaDivergence", err)
				return
			}
			repairs.Add(1)
		}
	}()

	callersWG.Wait()
	if d := time.Since(start); d > time.Minute {
		t.Errorf("callers needed %v beside the writers; decisions are being starved", d)
	}
	stop.Store(true)
	mutatorsWG.Wait()
	if n := repairs.Load(); n < 3 {
		t.Fatalf("%d rebuilds beside the callers, want at least 3", n)
	}
	if got, want := e.rebuilds.Value(), uint64(repairs.Load()); got != want {
		t.Fatalf("rebuild counter %d, corruptor caused %d", got, want)
	}
	if err := e.CheckSync(); err != nil {
		t.Fatal(err)
	}
}

// TestEngineConcurrentWriters checks that the writer path itself is safe
// under contention: many goroutines upserting disjoint id ranges must leave
// all replicas identical.
func TestEngineConcurrentWriters(t *testing.T) {
	e := newTestEngine(t, 2, minPolicySrc)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(base int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				for id := base; id < base+8; id++ {
					if err := e.Upsert(id, []int64{int64(id*100 + rep), 0, 0}); err != nil {
						t.Errorf("upsert %d: %v", id, err)
						return
					}
				}
			}
		}(g * 8)
	}
	wg.Wait()
	if err := e.CheckSync(); err != nil {
		t.Fatal(err)
	}
	if got := e.Size(); got != 32 {
		t.Fatalf("size %d, want 32", got)
	}
}

// TestEngineDecideBatchZeroAlloc pins the steady-state allocation contract:
// once the engine is warm, a full batched decision — steering, the step-major
// policy execution on every shard, write-back — must not touch the heap,
// matching the ExecInto contract under concurrency. Once a batch of the
// largest size has grown the shards' scratch, every smaller batch must be
// free too, for a tail-free program and for one with per-packet tail steps.
// The sizes are the served ones: the frame limit, a serve_filter batch and
// every size up to 256. A visit sizes its module's column to the rest of the
// batch, so the column grows once, at the warm-up, and then re-slices.
// The contract holds after Close too (the engine fails every packet in
// place): failing a batch allocates no more than deciding it.
func TestEngineDecideBatchZeroAlloc(t *testing.T) {
	batchSizes := []int{maxServedBatch, 1024}
	for n := 256; n >= 1; n-- {
		batchSizes = append(batchSizes, n)
	}
	for _, src := range []string{testPolicySrc, tailPolicySrc} {
		e := newTestEngine(t, 4, src)
		fillRandom(t, e, 64, 17)

		pkts := make([]Packet, maxServedBatch)
		for i := range pkts {
			pkts[i] = Packet{Key: uint64(i) * 0x9E3779B97F4A7C15, Out: i % 2}
		}
		stages := []struct {
			name   string
			enter  func()
			closed bool // the stage fails every packet
		}{
			{"healthy", func() {}, false},
			{"closed", e.Close, true},
		}
		for _, st := range stages {
			st.enter()
			e.DecideBatch(pkts) // warm the version-cached sets, grow the scratch
			for _, n := range batchSizes {
				allocs := testing.AllocsPerRun(5, func() {
					e.DecideBatch(pkts[:n])
				})
				if allocs != 0 {
					t.Fatalf("steady-state DecideBatch of %d (%s) allocates %.1f times per batch, want 0\n%s", n, st.name, allocs, src)
				}
				if !st.closed {
					continue
				}
				for i := range pkts[:n] {
					if pkts[i].OK || pkts[i].ID != -1 {
						t.Fatalf("%s, batch of %d: packet %d got (%d,%v), want (-1,false)", st.name, n, i, pkts[i].ID, pkts[i].OK)
					}
				}
			}
		}
		if allocs := testing.AllocsPerRun(5, func() { e.Decide() }); allocs != 0 {
			t.Fatalf("Decide on a closed engine allocates %.1f times, want 0", allocs)
		}
	}
}

// maxServedBatch is server.MaxBatch, the largest batch a frame carries
// (package server imports this one, so the test cannot name it).
const maxServedBatch = 4096

// tailPolicySrc has tail steps: a min over a two-sample and a predicate over
// a random run per packet, after the batch's front draws.
const tailPolicySrc = `
policy tailtest
out near  = min(sample(filter(table, cpu < 70), 2), mem)
out plain = filter(random(table), bw > 2000)
fallback near -> plain
`

// TestEngineWriteThenReadZeroAlloc interleaves table writes with batches —
// the realistic probe-plus-traffic steady state. The decision path must stay
// at zero allocations; the write path is allowed its one closure capture per
// operation (apply takes a func), nothing more, which also pins the SMBM
// spare-pool reuse through the engine's per-shard applies.
func TestEngineWriteThenReadZeroAlloc(t *testing.T) {
	e := newTestEngine(t, 2, minPolicySrc)
	fillRandom(t, e, 64, 23)

	pkts := make([]Packet, 64)
	for i := range pkts {
		pkts[i] = Packet{Key: uint64(i)}
	}
	vals := []int64{0, 0, 0}
	i := 0
	run := func() {
		i++
		vals[0] = int64(i)
		if err := e.Update(i%64, vals); err != nil {
			t.Fatal(err)
		}
		e.DecideBatch(pkts)
	}
	run() // warm up
	allocs := testing.AllocsPerRun(200, run)
	if allocs > 2 {
		t.Fatalf("steady-state Update+DecideBatch allocates %.1f times per cycle, want ≤ 2", allocs)
	}
}
