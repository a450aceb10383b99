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
// table writer, a policy flipper and a corrupt-and-scrub loop that cycles
// shards through quarantine and resync. The table pins its minimum to id 1
// and its maximum to id 2 whatever the writer and the corruptor do, and both
// policies agree, so every decision has one right answer: the one a private,
// single-threaded, never-written oracle engine gives for the same packet.
//
// The one-shard case is the decider half of the liveness pair (its mirror is
// TestSwapPolicyConcurrentDecides): every caller meets the streaming writer
// and the flipper on the same shard lock, and every DecideBatch must still
// return, oracle-correct, inside the wall bound. With one shard there is
// nowhere to fail over to, so that case runs without the corruptor.
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
	e := newTestEngine(t, shards, bothPolicySrc)
	fillPinned(e)

	const (
		callers          = 4
		batchesPerCaller = 200
	)
	corrupt := shards > 1
	var stop atomic.Bool
	var quarantines atomic.Int32
	// Callers keep going until the corruptor has produced a few quarantine
	// cycles, bounded so a wedged resync fails instead of hanging.
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
			for b := 0; b < batchesPerCaller || (corrupt && quarantines.Load() < 3 && time.Now().Before(deadline)); b++ {
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
	// Corruptor: drop a mid-range id from one shard's replicas, then audit so
	// the shard is quarantined and resynced; one shard out at a time.
	mutatorsWG.Add(1)
	go func() {
		defer mutatorsWG.Done()
		r := rand.New(rand.NewSource(7))
		for corrupt && !stop.Load() {
			if e.HealthyShards() < shards {
				time.Sleep(100 * time.Microsecond)
				continue
			}
			if err := e.CorruptReplica(r.Intn(shards), 3+r.Intn(8)); err == nil {
				quarantines.Add(int32(e.VerifyReplicas()))
			}
		}
	}()

	callersWG.Wait()
	if d := time.Since(start); d > time.Minute {
		t.Errorf("callers needed %v beside the writers; decisions are being starved", d)
	}
	stop.Store(true)
	mutatorsWG.Wait()
	if corrupt && quarantines.Load() == 0 {
		t.Fatal("no shard was ever quarantined; the test did not cover failover")
	}
	for si := 0; si < shards; si++ {
		waitHealth(t, e, si, Healthy)
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
// The contract holds at every stage of degradation: with one shard
// quarantined (its traffic fails over), with every shard quarantined and
// after Close (the engine fails every packet in place), failing a batch
// allocates no more than deciding it.
func TestEngineDecideBatchZeroAlloc(t *testing.T) {
	batchSizes := []int{maxServedBatch, 1024}
	for n := 256; n >= 1; n-- {
		batchSizes = append(batchSizes, n)
	}
	for _, src := range []string{testPolicySrc, tailPolicySrc} {
		e := newTestEngine(t, 4, src)
		fillRandom(t, e, 64, 17)
		e.resyncHold = make(chan struct{}) // quarantined shards stay out

		pkts := make([]Packet, maxServedBatch)
		for i := range pkts {
			pkts[i] = Packet{Key: uint64(i) * 0x9E3779B97F4A7C15, Out: i % 2}
		}
		quarantine := func(shards ...int) func() {
			return func() {
				for _, si := range shards {
					if err := e.CorruptReplica(si, si); err != nil {
						t.Fatal(err)
					}
				}
				if n := e.VerifyReplicas(); n != len(shards) {
					t.Fatalf("VerifyReplicas() = %d, want %d", n, len(shards))
				}
			}
		}
		stages := []struct {
			name  string
			enter func()
			live  int // healthy shards in the stage; 0 fails every packet
		}{
			{"healthy", func() {}, 4},
			{"failover", quarantine(1), 3},
			{"all quarantined", quarantine(0, 2, 3), 0},
			{"closed", e.Close, 0},
		}
		for _, st := range stages {
			st.enter()
			if st.live != 0 && e.HealthyShards() != st.live {
				t.Fatalf("%s: %d healthy shards, want %d", st.name, e.HealthyShards(), st.live)
			}
			e.DecideBatch(pkts) // warm the version-cached sets, grow the scratch
			for _, n := range batchSizes {
				allocs := testing.AllocsPerRun(5, func() {
					e.DecideBatch(pkts[:n])
				})
				if allocs != 0 {
					t.Fatalf("steady-state DecideBatch of %d (%s) allocates %.1f times per batch, want 0\n%s", n, st.name, allocs, src)
				}
				if st.live != 0 {
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
