// Package engine implements a concurrent, sharded decision engine over the
// Thanos filter module — the software analogue of a multi-pipelined data
// plane (§5.1.5 of the paper). Where internal/core and policy.Module model a
// single pipeline, the engine holds one pipeline replica ("shard") per
// configured pipeline, each a policy.Module: its own SMBM replica and the
// flattened policy interpreter bound to it, with fixed scratch vectors.
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
// holds exactly one module, and everything that touches it does so under the
// shard's mutex: a decision holds it for its visit, a table write holds it
// for one single-row SMBM operation, and a policy swap or a replica rebuild
// binds its module (over the shard's table, or a copy of the authority's)
// first and holds it only to replace the module pointer. Decisions therefore
// always observe a fully-written table and a complete program. What the
// hardware has and this does not is stall-free reads: a decision can wait for
// a write on its shard, bounded by one row operation or one pointer store —
// next to the whole visit it already waits behind any other decision on that
// shard.
//
// # Batched decisions, run to completion
//
// DecideBatch is the data-plane entry point: the caller hands a batch of
// packets, the engine steers each packet to a shard by its Key (a flow hash;
// one flow always lands on the same pipeline, exactly how a multi-pipeline
// switch partitions traffic), and the calling goroutine then visits each
// shard the batch touches: it takes that shard's lock, gathers the shard's
// packets in one branch-free pass, decides them step-major — each selection
// unit runs once over the whole visit (policy.Module.DecideBatch) — and moves
// on. The packets themselves carry the partition (see steerTag), so callers
// share no scratch outside a shard lock. Steering is a fixed function of the
// key: every shard is always in service.
// The only ordering a stateful data plane owes is per flow key, which the
// shard lock gives; there is no engine-wide lock, queue or hand-off on the
// path. The steady-state path — steering, policy execution, fallback
// resolution — performs zero heap allocations.
//
// # A diverged replica is rebuilt inline
//
// Every replica takes the same writes in the same order as the authoritative
// table, under one writer lock, so replicas do not diverge (§5.1.5). A
// replica that still rejects a write the authority accepted has a diverged
// table, which only a defect can cause. The write rebuilds that shard on the
// spot: it binds the current policy over a copy of the authority — same
// contents, same per-dimension order, so ties break as on every other replica
// (§5.1.2) — publishes it with one pointer store, and reports the divergence
// as an ErrReplicaDivergence-wrapped error. No shard is ever out of service.
// Using the engine after Close degrades (decisions come back OK=false, writes
// return ErrClosed) instead of panicking.
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
	// histogram, policy-swap, rebuild and failed-decision counters — under
	// this registry. All handles are created here, at construction;
	// telemetry adds no allocation and no lock to the decision path.
	Telemetry *telemetry.Registry
	// Flight, when non-nil, receives the engine's state transitions (replica
	// rebuild, policy swap) for the always-on flight recorder. Records are
	// lock-free and allocation-free; nil disables recording.
	Flight *telemetry.SpanRing
	// OnQuarantine, when non-nil, is called once per inline replica rebuild
	// with the shard index and the divergence that caused it. It runs on the
	// writer's goroutine after the write has released the engine's locks, so
	// it may block or do I/O (e.g. dump the flight recorder).
	OnQuarantine func(shard int, cause error)
}

// shard is one pipeline replica: its policy.Module — an SMBM plus the
// interpreter bound to it — and the lock under which callers execute on it
// and writers change it.
type shard struct {
	// mu admits one deciding caller or one writer at a time. It owns
	// everything a decision writes — the module's scratch, closed, idx and
	// the hot-path telemetry handles below — and, together with Engine.wmu,
	// the table contents and the mod pointer. The discipline: mutate a
	// shard's table or replace mod: wmu + mu; decide: mu; control-plane read
	// of mod or its table's contents: wmu. The table's id → position
	// pointers are the exception: a decision's min or max repairs them
	// (smbm.SMBM.PosInDim), so, like the scratch, they belong to mu, and a
	// control-plane call that reads positions (CheckInvariants) takes mu
	// too, after wmu. A writer holds mu for one row operation or one pointer
	// store, never across building a module or a table, recording a flight
	// event or calling OnQuarantine.
	mu sync.Mutex
	// mod is the shard's one replica. See mu for who may touch it.
	mod *policy.Module
	// closed is set by Close; packets steered here afterwards fail in place.
	closed bool
	// idx is the packet-index scratch of the visit in progress, reused
	// across visits so the steady state does not allocate.
	idx []int32

	// Telemetry handles, nil unless Config.Telemetry was set. decCtr and
	// emptyCtr are this shard's padded slots of the engine-wide sharded
	// counters. On the hot path they are touched only under mu.
	// chainTel is kept for the modules a swap or a rebuild binds, tableTel
	// for the table a rebuild copies.
	decCtr   *telemetry.Counter
	emptyCtr *telemetry.Counter
	chainTel *telemetry.ChainStats
	tableTel *telemetry.TableStats
}

// home returns the home shard of key k, k mod ns, with a mask when pow2.
func home(k, ns uint64, pow2 bool) uint64 {
	if pow2 {
		return k & (ns - 1)
	}
	return k % ns
}

// Engine is a concurrent sharded decision engine. Decisions (DecideBatch,
// Decide) and writes (Add, Delete, Update, Upsert) may be issued
// concurrently from any number of goroutines.
type Engine struct {
	shards []*shard
	schema policy.Schema
	// ns is the shard count and pow2 whether it is a power of two, which
	// lets steering find a home shard with a mask instead of a divide.
	ns   uint64
	pow2 bool

	// pol is the most recently published policy. Stored under wmu (SwapPolicy)
	// and read by rebuilds under wmu; atomic so Policy() needs no lock.
	pol atomic.Pointer[policy.Policy]

	// auth is the authoritative control-plane table: every accepted write
	// lands here first, and a diverged shard is rebuilt from it. Guarded by
	// wmu; never read by the decision path.
	auth *smbm.SMBM

	rrKey  atomic.Uint64 // round-robin steering key for Decide
	closed atomic.Bool   // Close has begun; writers check it under wmu

	// wmu serializes writers, so every replica advances through the same
	// operation sequence as auth. It is always taken before a shard's mu,
	// never after: the decision path holds shard locks and never takes wmu.
	// Holding wmu alone is enough to read any shard's mod and its table's
	// contents, since every mutator holds it too; reading a table's
	// positions also needs that shard's mu (see shard.mu).
	wmu sync.Mutex

	// flight receives state-transition events (nil-safe); onQuar is the
	// user's rebuild callback, invoked by apply outside all locks.
	flight *telemetry.SpanRing
	onQuar func(shard int, cause error)

	// Telemetry, nil unless Config.Telemetry was set. All handles are atomic
	// instruments: batchHist and failedCtr are observed by deciding callers,
	// polSwaps and rebuilds on the (wmu-serialized) write path.
	reg       *telemetry.Registry
	batchHist *telemetry.Histogram // DecideBatch sizes
	polSwaps  *telemetry.Counter   // policy hot-swaps published (SwapPolicy successes)
	rebuilds  *telemetry.Counter   // diverged replicas rebuilt inline
	failedCtr *telemetry.Counter   // decisions failed: engine closed or no such output
}

// New builds the engine: per shard, one policy.Module. All replicas start
// empty and identical; every interpreter draws the same deterministic seed
// assignment, so shards model identically-configured pipeline replicas. The
// engine owns no goroutines.
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
		schema: cfg.Schema,
		ns:     uint64(n),
		pow2:   n&(n-1) == 0,
		auth:   smbm.New(cfg.Capacity, len(cfg.Schema.Attrs)),
		flight: cfg.Flight,
		onQuar: cfg.OnQuarantine,
	}
	e.pol.Store(cfg.Policy)
	for i := 0; i < n; i++ {
		m, err := policy.NewModule(cfg.Capacity, cfg.Schema, cfg.Policy)
		if err != nil {
			return nil, err
		}
		e.shards = append(e.shards, &shard{mod: m})
	}
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
	labels := e.shards[0].mod.StepLabels()
	chains := telemetry.NewChainStats(reg, "thanos_engine_chain", labels, n)
	tables := telemetry.NewTableStats(reg, "thanos_engine_table", n)
	dec := reg.NewShardedCounter("thanos_engine_decisions_total", "decisions executed across all shards", n)
	empty := reg.NewShardedCounter("thanos_engine_empty_decisions_total", "decisions whose final candidate set was empty", n)
	e.batchHist = reg.NewHistogram("thanos_engine_batch_size", "DecideBatch request sizes in packets")
	e.polSwaps = reg.NewCounter("thanos_engine_policy_swaps_total", "policy hot-swaps published to every shard")
	// The rebuild counter keeps the name it had when a diverged shard was
	// quarantined: the benchmark refuses a run on which it is non-zero.
	e.rebuilds = reg.NewCounter("thanos_engine_shards_quarantined_total", "shards rebuilt from the authoritative table after rejecting a write it accepted")
	e.failedCtr = reg.NewCounter("thanos_engine_failed_decisions_total", "decisions failed because the engine was closed or the policy has no such output")
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
		s.mod.AttachTelemetry(chains[i])
		s.mod.Table.AttachTelemetry(tables[i])
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
// shard's lock, so it returns only after every decision already executing
// has finished. It takes no writer lock: a write that passed its closed
// check before Close began still reaches every replica. Close is idempotent.
// Using the engine after Close degrades instead of crashing: DecideBatch and
// Decide fill every packet with ID=-1/OK=false (a batch racing Close is
// served on the shards it reached first), and control-plane writes return
// ErrClosed.
func (e *Engine) Close() {
	if !e.closed.CompareAndSwap(false, true) {
		return
	}
	for _, s := range e.shards {
		s.mu.Lock()
		s.closed = true
		s.mu.Unlock()
	}
}

// steerTag marks a packet as steered but not yet decided: DecideBatch sets
// ID to steerTag-shard, and a decision overwrites it with a result ≥ -1. The
// packets double as the partition, so concurrent callers share no scratch.
const steerTag = -2

// DecideBatch runs one policy decision per packet, writing each result into
// the packet in place, and returns when every packet has been decided. The
// calling goroutine does the work: it steers each packet to a shard, then
// decides each shard's packets under that shard's lock, step-major.
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
	e.batchHist.Observe(uint64(len(pkts)))
	// The engine's fields in locals: through e, every store to a packet
	// would reload them.
	ns, pow2 := e.ns, e.pow2
	for i := range pkts {
		pkts[i].ID = steerTag - int(home(pkts[i].Key, ns, pow2))
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

// process decides every packet of pkts tagged for this shard, in one
// Module.DecideBatch, and returns how many it had to fail. Holding mu for the
// visit is the whole protocol: writers change the table and the module
// pointer only under mu, so execution never observes a table mid-write or a
// program half-swapped, and the table version is the same for every packet
// of the visit.
//
//thanos:hotpath
func (s *shard) process(pkts []Packet, tag int) (failed uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	mod := s.mod
	// Gather this shard's indices and outputs in one pass, with a conditional
	// increment the compiler renders branch-free: skipping foreign packets in
	// the decision loop put an unpredictable branch in front of every
	// interpreter call (+9% on serve_filter's 1024-packet batches).
	idx, col := s.reserveIdx(len(pkts)), mod.Batch(len(pkts))
	n := 0
	for i := range pkts {
		idx[n], col[n] = int32(i), pkts[i].Out
		if pkts[i].ID == tag {
			n++
		}
	}
	col = col[:n]
	// A packet naming an output the policy does not have fails in place: with
	// hot-swaps a caller's view of the output count is racy, so that is a
	// degradation, not a programming error. A closed shard fails them all.
	if s.closed {
		for k := range col {
			col[k] = -1
		}
	}
	failed = uint64(mod.DecideBatch(col))
	var empty uint64
	for k, i := range idx[:n] {
		id := col[k]
		pkts[i].ID, pkts[i].OK = id, id >= 0
		empty += uint64(id) >> 63 // 1 for an empty (or failed) decision
	}
	// One telemetry publish per visit, not per decision.
	empty -= failed
	s.decCtr.Add(uint64(n) - failed)
	if empty != 0 {
		s.emptyCtr.Add(empty)
	}
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
// to the table of every shard, each under that shard's lock. The operation is
// validated against the authoritative table first; a validation failure
// (duplicate id, missing id, full table) leaves every replica untouched.
//
// A failure on a shard replica after the authority accepted the write means
// that replica has diverged. apply rebuilds the shard from the authority on
// the spot (see rebuild), carries on to the next shard, and reports the first
// divergence as an ErrReplicaDivergence-wrapped error. OnQuarantine then
// hears of each rebuild, once the writer lock is released.
func (e *Engine) apply(op func(*smbm.SMBM) error) error {
	rebuilt, err := e.broadcast(op)
	for _, d := range rebuilt {
		if e.onQuar != nil {
			e.onQuar(d.shard, d.cause)
		}
	}
	return err
}

// divergence names a shard that rejected a write and the error it gave.
type divergence struct {
	shard int
	cause error
}

// broadcast is apply's part under the writer lock. It returns the shards it
// rebuilt, with the error each gave.
func (e *Engine) broadcast(op func(*smbm.SMBM) error) (rebuilt []divergence, err error) {
	e.wmu.Lock()
	defer e.wmu.Unlock()
	if e.closed.Load() {
		return nil, ErrClosed
	}
	if err := op(e.auth); err != nil {
		return nil, err
	}
	for si, s := range e.shards {
		werr := s.write(op)
		if werr == nil {
			continue
		}
		e.rebuild(si)
		if err == nil {
			err = fmt.Errorf("engine: shard %d rebuilt: %w: %w", si, smbm.ErrReplicaDivergence, werr)
		}
		rebuilt = append(rebuilt, divergence{si, werr})
	}
	return rebuilt, err
}

// write runs one already-validated single-row operation on the shard's
// table. The shard lock is held for exactly that operation, which is the
// longest a decision steered here can wait for a writer; an error means the
// replica rejected a write the authority accepted, i.e. it has diverged.
// Caller holds wmu.
func (s *shard) write(op func(*smbm.SMBM) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return op(s.mod.Table)
}

// rebuild replaces shard si's module with the current policy bound over a
// copy of the authoritative table (SMBM.Copy): same contents, same
// per-dimension order, so ties break as on every other shard, and same
// version. The module is built with no shard lock held, which is taken only
// to replace the module pointer, so a decision on the shard waits for a
// pointer store, never for the rebuild. Caller holds wmu, which gives it a
// stable authority.
func (e *Engine) rebuild(si int) {
	s := e.shards[si]
	t := e.auth.Copy()
	t.AttachTelemetry(s.tableTel)
	fresh, err := s.bind(t, e.schema, e.pol.Load())
	if err != nil {
		// The current policy is bound over every shard's table already, and
		// the copy has the same shape, so binding it again cannot fail.
		panic(fmt.Sprintf("engine: rebuild shard %d: %v", si, err))
	}
	s.publish(fresh)
	e.rebuilds.Inc()
	e.flight.Event(telemetry.EventQuarantine, 0, time.Now().UnixNano(), int64(si))
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
// every shard holds contents identical to the authoritative table,
// per-dimension order included (two tables that hold the same rows but broke
// a tie differently answer a min or max differently), and satisfies every
// SMBM structural invariant. Intended for tests; it takes the writer lock, so
// writes are briefly excluded, and each shard's lock while it checks that
// shard's table: CheckInvariants repairs the table's position pointers,
// which a deciding caller's min or max may be repairing under the shard lock.
func (e *Engine) CheckSync() error {
	e.wmu.Lock()
	defer e.wmu.Unlock()
	if err := e.auth.CheckInvariants(); err != nil {
		return fmt.Errorf("authoritative table: %w", err)
	}
	for si, s := range e.shards {
		s.mu.Lock()
		err := s.mod.Table.CheckInvariants()
		if err == nil {
			err = s.mod.Table.Diff(e.auth)
		}
		s.mu.Unlock()
		if err != nil {
			return fmt.Errorf("shard %d: %w", si, err)
		}
	}
	return nil
}

// ShardStatus is one shard's slice of an engine introspection snapshot.
type ShardStatus struct {
	// TableVersion is the shard table's SMBM mutation counter. It agrees
	// with AuthVersion: every accepted write advances both, and a rebuild
	// copies the authority's version with its contents.
	TableVersion uint64 `json:"table_version"`
	TableSize    int    `json:"table_size"`
}

// EngineStatus is the engine's introspection snapshot (/debug/thanos).
type EngineStatus struct {
	Shards      []ShardStatus `json:"shards"`
	Resources   int           `json:"resources"`
	AuthVersion uint64        `json:"auth_version"`
}

// Introspect snapshots every shard's table version and size beside the
// authoritative table's. Control-plane only: it takes the writer lock, so
// the snapshot is consistent with respect to writes, while decisions keep
// flowing. Reading a table's version and size under wmu alone is safe: a
// decider writes only a table's position pointers.
func (e *Engine) Introspect() EngineStatus {
	e.wmu.Lock()
	defer e.wmu.Unlock()
	st := EngineStatus{
		Shards:      make([]ShardStatus, len(e.shards)),
		Resources:   e.auth.Size(),
		AuthVersion: e.auth.Version(),
	}
	for si, s := range e.shards {
		st.Shards[si] = ShardStatus{TableVersion: s.mod.Table.Version(), TableSize: s.mod.Table.Size()}
	}
	return st
}
