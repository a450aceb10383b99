// Package engine implements a concurrent, sharded decision engine over the
// Thanos filter module — the software analogue of a multi-pipelined data
// plane (§5.1.5 of the paper). Where internal/core and policy.Module model a
// single pipeline making one decision at a time, the engine holds one
// pipeline replica ("shard") per configured pipeline, each owning its own
// SMBM replica and flattened policy interpreter with fixed scratch vectors.
// A shard is a table replica, not a thread: the goroutine that calls
// DecideBatch executes its packets on the shards they steer to, so decisions
// from different callers proceed in parallel on different shards — at most
// Shards at once — without sharing a single hot data structure.
//
// # Writes are atomic, and cost a decision one row operation
//
// The paper's SMBM hardware performs pipelined 2-cycle writes: the visible
// state always corresponds to a completed operation (§5.1.4). The engine
// gives the same atomicity with the one lock a shard already has. Each shard
// holds exactly one snapshot — a table, the interpreter bound to it and the
// policy that interpreter was built from — and everything that touches it
// does so under the shard's mutex: a decision holds it for its visit, a table
// write holds it for one single-row SMBM operation, and a policy swap or a
// resync builds its interpreter (and rebuilt table) first and holds it only
// to replace the snapshot pointer. Decisions therefore always observe a
// fully-written table and a complete program. What the hardware has and this
// does not is stall-free reads: a decision can wait for a write on its shard,
// bounded by one row operation or one pointer store — next to the whole
// visit it already waits behind any other decision on that shard.
//
// # Batched decisions, run to completion
//
// DecideBatch is the data-plane entry point: the caller hands a batch of
// packets, the engine steers each packet to a shard by its Key (a flow hash;
// one flow always lands on the same pipeline, exactly how a multi-pipeline
// switch partitions traffic), and the calling goroutine then visits each
// shard the batch touches: it takes that shard's lock, decides the shard's
// packets in batch order against the shard's snapshot, and moves on.
// The packets themselves carry the partition (see steerTag), so callers
// share no scratch outside a shard lock.
// The only ordering a stateful data plane owes is per flow key, which the
// shard lock gives; there is no engine-wide lock, queue or hand-off on the
// path. The steady-state path — steering, policy execution, fallback
// resolution — performs zero heap allocations.
//
// # Graceful degradation
//
// A replica that diverges from the authoritative table (memory corruption, a
// failed broadcast write) is not a crash: the shard moves through a health
// state machine (healthy → quarantined → resyncing → healthy). Quarantined
// shards are left out of the steering table — their traffic fails over to
// healthy shards — while a background loop rebuilds its snapshot from the
// authoritative table, with capped exponential backoff between failed
// attempts. Likewise, using the engine after Close degrades (decisions come
// back OK=false, writes return ErrClosed) instead of panicking. See
// health.go.
package engine

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/policy"
	"repro/internal/smbm"
	"repro/internal/telemetry"
)

// ErrClosed is returned by control-plane writes issued after Close.
var ErrClosed = errors.New("engine: closed")

// Packet is one decision request flowing through DecideBatch. The engine
// fills ID and OK in place.
type Packet struct {
	// Key steers the packet to a shard (shard = Key mod Shards). Callers
	// typically use a flow hash so a flow's packets share a pipeline.
	Key uint64
	// Out is the policy output index to resolve (0 for single-output
	// policies); fallback chains are followed as usual (§4.2.3).
	Out int
	// ID is the selected resource id, valid when OK is true; -1 otherwise.
	// While DecideBatch runs, the ID of a packet not yet decided holds the
	// shard it was steered to (see steerTag).
	ID int
	// OK reports whether any resource was selected (false when even the
	// fallback table came up empty).
	OK bool
}

// Config configures New.
type Config struct {
	// Shards is the number of pipeline replicas, which is also the number
	// of callers that can decide at once; 0 or negative selects GOMAXPROCS.
	Shards int
	// Capacity is N, the resource-slot count of every replica table.
	Capacity int
	// Schema names the metric dimensions.
	Schema policy.Schema
	// Policy is the filter policy every shard executes.
	Policy *policy.Policy
	// Telemetry, when non-nil, registers the engine's metrics — per-shard
	// decision counts, chain selectivity, table op counts, the batch-size
	// histogram, policy-swap and degradation counters — under this registry.
	// All handles are created here, at construction; telemetry adds no
	// allocation and no lock to the decision path.
	Telemetry *telemetry.Registry
	// ResyncBase is the initial backoff between failed resync attempts of a
	// quarantined shard; 0 selects DefaultResyncBase.
	ResyncBase time.Duration
	// ResyncMax caps the exponential resync backoff; 0 selects
	// DefaultResyncMax.
	ResyncMax time.Duration
	// Flight, when non-nil, receives the engine's state transitions
	// (quarantine, resync completion, policy swap) for the always-on flight
	// recorder. Records are lock-free and allocation-free; nil disables
	// recording.
	Flight *telemetry.SpanRing
	// OnQuarantine, when non-nil, is called once per shard quarantine with
	// the shard index and the divergence that caused it. It runs on the
	// background resync goroutine, never under the engine's locks, so it may
	// block or do I/O (e.g. dump the flight recorder).
	OnQuarantine func(shard int, cause error)
}

// DefaultResyncBase is the default initial resync retry backoff.
const DefaultResyncBase = time.Millisecond

// DefaultResyncMax is the default cap on the exponential resync backoff.
const DefaultResyncMax = 100 * time.Millisecond

// snapshot is one complete replica: an SMBM plus an interpreter bound to it.
// A snapshot is only ever executed, and its table only ever mutated, under
// its shard's lock.
//
// Both halves are arena-packed: the SMBM stores its dimensions in padded
// columnar arenas and the interpreter carves every step buffer from one
// cache-line-aligned bitvec batch, so a shard's decision working set is a
// handful of contiguous allocations rather than per-vector heap objects.
type snapshot struct {
	table  *smbm.SMBM
	interp *policy.Interp
}

// shard is one pipeline replica: its snapshot and the lock under which
// callers execute on it and writers change it.
type shard struct {
	// mu admits one deciding caller or one writer at a time. It owns
	// everything a decision writes — the interpreter's scratch, closed, idx
	// and the hot-path telemetry handles below — and, together with
	// Engine.wmu, the table contents and the snap pointer. The discipline:
	// mutate a shard's table or replace snap: wmu + mu; decide: mu;
	// control-plane read of snap or its table: wmu. A writer holds mu for one
	// row operation or one pointer store, never across building an
	// interpreter or a table, and never while it quarantines a shard,
	// rebuilds steering, records a flight event or calls OnQuarantine.
	mu sync.Mutex
	// snap is the shard's one replica. See mu for who may touch it.
	snap *snapshot
	// closed is set by Close; packets steered here afterwards fail in place.
	closed bool
	// idx is the packet-index scratch of the visit in progress, reused
	// across visits so the steady state does not allocate.
	idx []int32

	// health is the shard's position in the degradation state machine
	// (Healthy/Quarantined/Resyncing). Transitions happen under Engine.wmu;
	// the atomic lets scrapers read it lock-free.
	health atomic.Int32
	// lastErr records the divergence that quarantined the shard; guarded by
	// Engine.wmu.
	lastErr error

	// Telemetry handles, nil unless Config.Telemetry was set. decCtr and
	// emptyCtr are this shard's padded slots of the engine-wide sharded
	// counters. On the hot path they are touched only under mu.
	// chainTel/tableTel are kept so resync can re-attach the shard's stats
	// to rebuilt snapshots.
	decCtr   *telemetry.Counter
	emptyCtr *telemetry.Counter
	chainTel *telemetry.ChainStats
	tableTel *telemetry.TableStats
}

// steering maps a packet's home shard (Key mod Shards) to the shard that
// serves it: the identity while every shard is healthy, a healthy substitute
// for quarantined homes (failover), and -1 everywhere while live==0. A
// steering table is immutable once published through Engine.steer.
type steering struct {
	to   []int32
	live int // healthy shards
}

// Engine is a concurrent sharded decision engine. Decisions (DecideBatch,
// Decide) and writes (Add, Delete, Update, Upsert) may be issued
// concurrently from any number of goroutines.
type Engine struct {
	shards []*shard
	schema policy.Schema

	// pol is the most recently published policy. Stored under wmu (SwapPolicy)
	// and read by resync under wmu; atomic so Policy() needs no lock.
	pol atomic.Pointer[policy.Policy]

	// auth is the authoritative control-plane table: every accepted write
	// lands here first, and quarantined shards rebuild from it. Guarded by
	// wmu; never read by the decision path.
	auth *smbm.SMBM

	// steer is the current steering table, replaced wholesale under wmu on
	// every health transition and loaded once per batch. A batch that loaded
	// the previous table may still execute on a shard quarantined since; the
	// shard lock keeps that safe (it runs before or after a resync's pointer
	// store, never during) and the decision is one the shard could have given
	// just before the transition.
	steer atomic.Pointer[steering]

	rrKey  atomic.Uint64 // round-robin steering key for Decide
	closed atomic.Bool   // Close has begun

	// wmu serializes writers, so every replica advances through the same
	// operation sequence as auth, and guards the health transitions. It is
	// always taken before a shard's mu, never after: the decision path holds
	// shard locks and never takes wmu. Holding wmu alone is enough to read any
	// shard's snap and table, since every mutator holds it too.
	wmu sync.Mutex

	bg       sync.WaitGroup // background resync goroutines, for Close
	closedCh chan struct{}  // closed by Close; bails writers and resync loops

	// flight receives state-transition events (nil-safe); onQuar is the
	// user's quarantine callback, invoked from resyncLoop outside all locks.
	flight *telemetry.SpanRing
	onQuar func(shard int, cause error)

	// resync retry schedule (capped exponential backoff).
	resyncBase time.Duration
	resyncMax  time.Duration
	// resyncFailHook, when set (tests/fault injection), is consulted at the
	// top of every resync attempt; a non-nil error fails that attempt.
	// Read under wmu.
	resyncFailHook func(shard, attempt int) error

	// Telemetry, nil unless Config.Telemetry was set. All handles are atomic
	// instruments: batchHist and the failover/failed counters are observed
	// by deciding callers, polSwaps on the (wmu-serialized) write path.
	reg       *telemetry.Registry
	batchHist *telemetry.Histogram // DecideBatch sizes
	polSwaps  *telemetry.Counter   // policy hot-swaps published (SwapPolicy successes)

	// Degradation telemetry, nil-safe like every other handle.
	quarCtr     *telemetry.Counter // shards quarantined after divergence
	resyncCtr   *telemetry.Counter // resyncs completed
	retryCtr    *telemetry.Counter // failed resync attempts (will back off + retry)
	failoverCtr *telemetry.Counter // decisions diverted to a non-home shard
	failedCtr   *telemetry.Counter // decisions failed: engine closed, no healthy shard, or no such output
	quarGauge   *telemetry.Gauge   // shards currently quarantined or resyncing
}

// New builds the engine: per shard, one table+interpreter replica. All
// replicas start empty and identical; every interpreter draws the same
// deterministic seed assignment, so shards model identically-configured
// pipeline replicas. A healthy engine owns no goroutines.
func New(cfg Config) (*Engine, error) {
	n := cfg.Shards
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if cfg.Capacity <= 0 {
		return nil, fmt.Errorf("engine: capacity must be positive")
	}
	if cfg.Policy == nil {
		return nil, fmt.Errorf("engine: nil policy")
	}
	e := &Engine{
		schema:     cfg.Schema,
		auth:       smbm.New(cfg.Capacity, len(cfg.Schema.Attrs)),
		closedCh:   make(chan struct{}),
		flight:     cfg.Flight,
		onQuar:     cfg.OnQuarantine,
		resyncBase: cfg.ResyncBase,
		resyncMax:  cfg.ResyncMax,
	}
	e.pol.Store(cfg.Policy)
	if e.resyncBase <= 0 {
		e.resyncBase = DefaultResyncBase
	}
	if e.resyncMax <= 0 {
		e.resyncMax = DefaultResyncMax
	}
	for i := 0; i < n; i++ {
		s := &shard{}
		var err error
		s.snap, err = s.newSnapshot(smbm.New(cfg.Capacity, len(cfg.Schema.Attrs)), cfg.Schema, cfg.Policy)
		if err != nil {
			return nil, err
		}
		e.shards = append(e.shards, s)
	}
	e.rebuildSteering()
	if cfg.Telemetry != nil {
		e.setupTelemetry(cfg.Telemetry, n)
	}
	return e, nil
}

// setupTelemetry registers the engine's metric set under reg and hands each
// shard its padded counter slots and chain/table stats.
// Runs once, inside New, so no synchronization with readers is needed.
func (e *Engine) setupTelemetry(reg *telemetry.Registry, n int) {
	e.reg = reg
	labels := e.shards[0].snap.interp.StepLabels()
	chains := telemetry.NewChainStats(reg, "thanos_engine_chain", labels, n)
	tables := telemetry.NewTableStats(reg, "thanos_engine_table", n)
	dec := reg.NewShardedCounter("thanos_engine_decisions_total", "decisions executed across all shards", n)
	empty := reg.NewShardedCounter("thanos_engine_empty_decisions_total", "decisions whose final candidate set was empty", n)
	e.batchHist = reg.NewHistogram("thanos_engine_batch_size", "DecideBatch request sizes in packets")
	e.polSwaps = reg.NewCounter("thanos_engine_policy_swaps_total", "policy hot-swaps published to every healthy shard")
	e.quarCtr = reg.NewCounter("thanos_engine_shards_quarantined_total", "shards quarantined after replica divergence")
	e.resyncCtr = reg.NewCounter("thanos_engine_resyncs_completed_total", "quarantined shards rebuilt from the authoritative table and returned to service")
	e.retryCtr = reg.NewCounter("thanos_engine_resync_retries_total", "failed resync attempts, retried with capped exponential backoff")
	e.failoverCtr = reg.NewCounter("thanos_engine_failover_decisions_total", "decisions diverted from a quarantined home shard to a healthy one")
	e.failedCtr = reg.NewCounter("thanos_engine_failed_decisions_total", "decisions failed because the engine was closed, no shard was healthy, or the policy has no such output")
	e.quarGauge = reg.NewGauge("thanos_engine_quarantined_shards", "shards currently quarantined or resyncing")
	reg.NewGaugeFunc("thanos_engine_shards", "pipeline replicas", func() int64 { return int64(n) })
	// thanos_engine_table_size (the TableStats gauge above) tracks the
	// replica size as writes reach the replicas; this one asks the
	// authoritative replica directly at scrape time.
	reg.NewGaugeFunc("thanos_engine_resources", "resources in the authoritative replica at scrape time", func() int64 { return int64(e.Size()) })
	for i, s := range e.shards {
		s.decCtr = dec.Shard(i)
		s.emptyCtr = empty.Shard(i)
		s.chainTel = chains[i]
		s.tableTel = tables[i]
		s.snap.interp.AttachTelemetry(chains[i])
		s.snap.table.AttachTelemetry(tables[i])
	}
}

// Telemetry returns the registry the engine was configured with, or nil.
func (e *Engine) Telemetry() *telemetry.Registry { return e.reg }

// Shards returns the number of pipeline replicas.
func (e *Engine) Shards() int { return len(e.shards) }

// Policy returns the policy every shard currently executes. With policy
// hot-swaps in flight the result is the most recently published policy.
func (e *Engine) Policy() *policy.Policy { return e.pol.Load() }

// Schema returns the metric-dimension schema the engine was built with.
// The schema is immutable for the engine's lifetime: hot-swaps replace the
// policy, never the table layout.
func (e *Engine) Schema() policy.Schema { return e.schema }

// Capacity returns N, the resource-slot count of the replica tables. Like
// the schema it is fixed at construction, so no lock is needed to read it.
func (e *Engine) Capacity() int { return e.auth.Capacity() }

// Close shuts the engine down: it marks every shard closed under that
// shard's lock — so it returns only after every decision already executing
// has finished — and stops and waits for any background resyncs. Close is
// idempotent. Using the engine after Close degrades instead of crashing:
// DecideBatch and Decide fill every packet with ID=-1/OK=false (a batch
// racing Close is served on the shards it reached first), and control-plane
// writes return ErrClosed.
func (e *Engine) Close() {
	if !e.closed.CompareAndSwap(false, true) {
		return
	}
	close(e.closedCh)
	for _, s := range e.shards {
		s.mu.Lock()
		s.closed = true
		s.mu.Unlock()
	}
	e.bg.Wait()
}

// steerTag marks a packet as steered but not yet decided: DecideBatch sets
// ID to steerTag-shard, and a decision overwrites it with a result ≥ -1. The
// packets double as the partition, so concurrent callers share no scratch.
const steerTag = -2

// DecideBatch runs one policy decision per packet, writing each result into
// the packet in place, and returns when every packet has been decided. The
// calling goroutine does the work: it steers each packet to a shard, then
// executes each shard's packets under that shard's lock, in batch order.
// Safe for concurrent use; concurrent batches run in parallel except where
// they meet on a shard.
//
// The steady-state path performs no heap allocations.
//
//thanos:hotpath
func (e *Engine) DecideBatch(pkts []Packet) {
	if len(pkts) == 0 {
		return
	}
	st := e.steer.Load()
	if st.live == 0 {
		// Degraded: every shard is quarantined. Fail the batch in place —
		// callers observe OK=false — instead of blocking on a total fault.
		for i := range pkts {
			pkts[i].ID = -1
			pkts[i].OK = false
		}
		e.failedCtr.Add(uint64(len(pkts)))
		return
	}
	e.batchHist.Observe(uint64(len(pkts)))
	ns := uint64(len(e.shards))
	var diverted uint64
	for i := range pkts {
		home := pkts[i].Key % ns
		tgt := st.to[home]
		if uint64(tgt) != home {
			diverted++
		}
		pkts[i].ID = steerTag - int(tgt)
	}
	if diverted != 0 {
		e.failoverCtr.Add(diverted)
	}
	// Visit shards in order of first appearance: the first packet still
	// tagged names the next shard, which then decides all of its packets.
	var failed uint64
	for i := range pkts {
		if tag := pkts[i].ID; tag <= steerTag {
			failed += e.shards[steerTag-tag].process(pkts[i:], tag)
		}
	}
	if failed != 0 {
		e.failedCtr.Add(failed)
	}
}

// Decide runs a single decision for policy output 0, steering it to shards
// round-robin.
//
//thanos:hotpath
func (e *Engine) Decide() (id int, ok bool) {
	one := [1]Packet{{Key: e.rrKey.Add(1) - 1}}
	e.DecideBatch(one[:])
	return one[0].ID, one[0].OK
}

// reserveIdx returns the shard's index scratch with room for n entries.
//
//thanos:coldpath amortized: grows only when a visit scans more packets than any before it on this shard; steady state is a re-slice
func (s *shard) reserveIdx(n int) []int32 {
	if cap(s.idx) < n {
		s.idx = make([]int32, n)
	}
	return s.idx[:n]
}

// process decides, in order, every packet of pkts tagged for this shard,
// against the shard's snapshot, and returns how many it had to fail. Holding
// mu for the visit is the whole protocol: writers change the table and the
// snapshot pointer only under mu, so execution never observes a table
// mid-write or a program half-swapped, and the table version is the same for
// every packet of the visit.
//
//thanos:hotpath
func (s *shard) process(pkts []Packet, tag int) (failed uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.snap
	// A packet naming an output the current policy does not have fails in
	// place (ID=-1, OK=false) instead of panicking in the interpreter: with
	// policy hot-swaps a caller's view of the output count is inherently racy,
	// so an out-of-range index is a degradation, not a programming error. A
	// closed shard has no outputs to offer at all.
	nOut := len(st.interp.Policy().Outputs)
	if s.closed {
		nOut = 0
	}
	// Gather this shard's packets first, with a conditional increment the
	// compiler renders branch-free: skipping foreign packets inside the
	// decision loop instead put an unpredictable branch in front of every
	// interpreter call (+9% on serve_filter's 1024-packet batches).
	idx := s.reserveIdx(len(pkts))
	n := 0
	for i := range pkts {
		idx[n] = int32(i)
		if pkts[i].ID == tag {
			n++
		}
	}
	var dec, empty uint64
	for _, i := range idx[:n] {
		p := &pkts[i]
		if p.Out < 0 || p.Out >= nOut {
			p.ID = -1
			p.OK = false
			failed++
			continue
		}
		p.ID = st.interp.Decide(p.Out)
		p.OK = p.ID >= 0
		dec++
		if !p.OK {
			empty++
		}
	}
	// One telemetry publish per visit, not per decision. The table version
	// cannot move while mu is held, which is what FlushStats's same-version
	// contract requires.
	s.decCtr.Add(dec)
	if empty != 0 {
		s.emptyCtr.Add(empty)
	}
	st.interp.FlushStats(dec)
	return failed
}

// Add inserts a resource into every replica. See apply for how a write
// propagates.
func (e *Engine) Add(id int, vals []int64) error {
	return e.apply(func(t *smbm.SMBM) error { return t.Add(id, vals) })
}

// Delete removes a resource from every replica.
func (e *Engine) Delete(id int) error {
	return e.apply(func(t *smbm.SMBM) error { return t.Delete(id) })
}

// Update replaces a resource's metrics in every replica.
func (e *Engine) Update(id int, vals []int64) error {
	return e.apply(func(t *smbm.SMBM) error { return t.Update(id, vals) })
}

// Upsert adds or refreshes a resource in every replica — the probe-
// processing write path (§3).
func (e *Engine) Upsert(id int, vals []int64) error {
	return e.apply(func(t *smbm.SMBM) error { return t.Upsert(id, vals) })
}

// apply propagates one table operation to the authoritative table and then
// to the table of every healthy shard, each under that shard's lock. The
// operation is validated against the authoritative table first; a validation
// failure (duplicate id, missing id, full table) leaves every replica
// untouched.
//
// A failure on a shard replica after the authority accepted the write means
// that replica has diverged. That used to panic; now the shard is
// quarantined — its traffic fails over to healthy shards while a background
// resync rebuilds it from the authority — and apply reports the first
// divergence as an ErrReplicaDivergence-wrapped error. Healthy shards still
// receive the write, so the serving set stays consistent.
func (e *Engine) apply(op func(*smbm.SMBM) error) error {
	e.wmu.Lock()
	defer e.wmu.Unlock()
	select {
	case <-e.closedCh:
		return ErrClosed
	default:
	}
	if err := op(e.auth); err != nil {
		return err
	}
	var firstDiv error
	for si, s := range e.shards {
		if ShardHealth(s.health.Load()) != Healthy {
			continue // will rebuild from e.auth on resync
		}
		if err := s.write(op); err != nil {
			e.quarantineLocked(si, err)
			if firstDiv == nil {
				firstDiv = fmt.Errorf("engine: shard %d quarantined: %w: %w",
					si, smbm.ErrReplicaDivergence, err)
			}
		}
	}
	return firstDiv
}

// write runs one already-validated single-row operation on the shard's
// table. The shard lock is held for exactly that operation, which is the
// longest a decision steered here can wait for a writer; an error means the
// replica rejected a write the authority accepted, i.e. it has diverged.
// Caller holds wmu and quarantines outside the shard lock.
func (s *shard) write(op func(*smbm.SMBM) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return op(s.snap.table)
}

// Metrics returns a copy of the metric values for id from the authoritative
// table, or ok=false if absent. Control-plane read.
func (e *Engine) Metrics(id int) ([]int64, bool) {
	e.wmu.Lock()
	defer e.wmu.Unlock()
	return e.auth.Metrics(id)
}

// Size returns the number of resources currently stored.
func (e *Engine) Size() int {
	e.wmu.Lock()
	defer e.wmu.Unlock()
	return e.auth.Size()
}

// CheckSync verifies the engine-wide InSync invariant: the replica table of
// every healthy shard holds contents identical to the authoritative table
// and satisfies every SMBM structural invariant. Quarantined and resyncing
// shards are excluded — they are known-diverged and out of the serving set.
// Intended for tests; it takes the writer lock, so in-flight decisions are
// unaffected but writes are briefly excluded.
func (e *Engine) CheckSync() error {
	e.wmu.Lock()
	defer e.wmu.Unlock()
	base := e.auth
	if err := base.CheckInvariants(); err != nil {
		return fmt.Errorf("authoritative table: %w", err)
	}
	ids := base.Members().IDs()
	for si, s := range e.shards {
		if ShardHealth(s.health.Load()) != Healthy {
			continue
		}
		if err := s.snap.table.CheckInvariants(); err != nil {
			return fmt.Errorf("shard %d: %w", si, err)
		}
		if err := e.verifyShard(s, ids); err != nil {
			return fmt.Errorf("shard %d: %w", si, err)
		}
	}
	return nil
}
