package engine

import (
	"fmt"
	"time"

	"repro/internal/smbm"
	"repro/internal/telemetry"
)

// ShardHealth is a shard's position in the degradation state machine.
//
// A shard is Healthy while its table tracks the authoritative table
// op-for-op. The first write it rejects after the authority accepted it (or
// a divergence found by VerifyReplicas) moves it to Quarantined: the steering
// table sends its traffic to healthy shards and writers stop broadcasting to
// it. A background goroutine then rebuilds its module over a copy of the
// authority under the writer lock, in one attempt, and returns it to Healthy
// (see SwapPolicy for why the rebuild does not fail).
type ShardHealth int32

const (
	// Healthy: in the serving and broadcast sets.
	Healthy ShardHealth = iota
	// Quarantined: diverged from the authoritative table; out of the
	// serving set until its resync rebuilds it.
	Quarantined
)

func (h ShardHealth) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Quarantined:
		return "quarantined"
	default:
		return fmt.Sprintf("ShardHealth(%d)", int32(h))
	}
}

// Health returns shard si's current health state. Safe for concurrent use.
func (e *Engine) Health(si int) ShardHealth {
	return ShardHealth(e.shards[si].health.Load())
}

// HealthyShards returns the number of shards currently in the serving set.
func (e *Engine) HealthyShards() int { return e.steer.Load().live }

// LastShardError returns the divergence that most recently quarantined
// shard si (or the error of a failed rebuild), or nil if it never diverged.
func (e *Engine) LastShardError(si int) error {
	e.wmu.Lock()
	defer e.wmu.Unlock()
	return e.shards[si].lastErr
}

// ShardStatus is one shard's slice of an engine introspection snapshot.
type ShardStatus struct {
	Health string `json:"health"`
	// LastErr is the divergence that most recently quarantined the shard,
	// empty if it never diverged.
	LastErr string `json:"last_err,omitempty"`
	// TableVersion is the shard table's SMBM mutation counter. A healthy
	// shard agrees with AuthVersion: every accepted write advances both, and
	// a resync copies the authority's version with its contents.
	TableVersion uint64 `json:"table_version"`
	TableSize    int    `json:"table_size"`
}

// EngineStatus is the engine's introspection snapshot (/debug/thanos).
type EngineStatus struct {
	Shards      []ShardStatus `json:"shards"`
	Live        int           `json:"live"` // shards in the serving set
	Resources   int           `json:"resources"`
	AuthVersion uint64        `json:"auth_version"`
}

// Introspect snapshots the engine's degradation state: per-shard health,
// last divergence, and table version/size, plus the authoritative
// table's view. Control-plane only — it takes the writer lock, so the
// snapshot is consistent with respect to writes and health transitions,
// while decisions keep flowing.
func (e *Engine) Introspect() EngineStatus {
	e.wmu.Lock()
	defer e.wmu.Unlock()
	st := EngineStatus{
		Shards:      make([]ShardStatus, 0, len(e.shards)),
		Live:        e.steer.Load().live,
		Resources:   e.auth.Size(),
		AuthVersion: e.auth.Version(),
	}
	for _, s := range e.shards {
		ss := ShardStatus{Health: ShardHealth(s.health.Load()).String()}
		if s.lastErr != nil {
			ss.LastErr = s.lastErr.Error()
		}
		// Safe to read under wmu: a decider writes only a table's position
		// pointers, never its version or size, and every mutator (apply,
		// swap, resync) holds wmu, which we hold.
		ss.TableVersion = s.mod.Table.Version()
		ss.TableSize = s.mod.Table.Size()
		st.Shards = append(st.Shards, ss)
	}
	return st
}

// quarantineLocked moves a healthy shard to Quarantined, pulls it out of the
// steering table (failover), and starts its background resync loop. Caller
// holds wmu. Idempotent per transition: only the Healthy→Quarantined edge
// spawns a resync.
func (e *Engine) quarantineLocked(si int, cause error) {
	s := e.shards[si]
	if !s.health.CompareAndSwap(int32(Healthy), int32(Quarantined)) {
		return
	}
	s.lastErr = cause
	e.quarCtr.Inc()
	e.quarGauge.Add(1)
	// The flight record is atomics-only (safe under wmu); the OnQuarantine
	// callback may do I/O, so it runs on the resync goroutine, not here.
	e.flight.Event(telemetry.EventQuarantine, 0, time.Now().UnixNano(), int64(si))
	e.rebuildSteering()
	e.bg.Add(1)
	go e.resync(si, cause)
}

// rebuildSteering recomputes the home-shard → serving-shard table from the
// current health states and publishes it. Healthy shards serve themselves; a
// quarantined home's traffic is spread over the healthy shards
// deterministically (k-th dead shard → k mod live). With no healthy shards
// every entry is -1 and DecideBatch fails batches instead of executing them.
// It also records whether the shard count is a power of two, which lets
// DecideBatch find a home shard with a mask instead of a divide, and whether
// the table is the identity, which spares DecideBatch the failover count.
// Callers hold wmu (or are New), which makes them the table's only writer;
// batches already steered by the previous table finish on it.
func (e *Engine) rebuildSteering() {
	to := make([]int32, len(e.shards))
	liveIdx := make([]int32, 0, len(e.shards))
	for i, s := range e.shards {
		if ShardHealth(s.health.Load()) == Healthy {
			liveIdx = append(liveIdx, int32(i))
		}
	}
	k, ident := 0, true
	for i := range to {
		switch {
		case len(liveIdx) == 0:
			to[i] = -1
		case ShardHealth(e.shards[i].health.Load()) == Healthy:
			to[i] = int32(i)
		default:
			to[i] = liveIdx[k%len(liveIdx)]
			k++
		}
		ident = ident && to[i] == int32(i)
	}
	e.steer.Store(&steering{to: to, live: len(liveIdx), pow2: len(to)&(len(to)-1) == 0, ident: ident})
}

// resync drives one quarantined shard back to health: one rebuild from the
// authoritative table, unless the engine closes first. It first delivers the
// OnQuarantine callback, holding no engine lock, so the callback is free to
// block or dump diagnostics. The rebuild holds wmu, which gives it a stable
// authority, and binds the current policy over a copy of it (SMBM.Copy):
// same contents, same per-dimension order, so ties break as on every other
// shard, and same version. The module is built with no shard lock held,
// which is taken only to replace the module pointer, so a batch steered here
// by a stale steering table waits for a pointer store, never for the
// rebuild. A failed rebuild leaves the shard quarantined with the failure as
// its lastErr.
func (e *Engine) resync(si int, cause error) {
	defer e.bg.Done()
	if e.onQuar != nil {
		e.onQuar(si, cause)
	}
	if e.resyncHold != nil {
		select {
		case <-e.resyncHold:
		case <-e.closedCh:
			return
		}
	}
	e.wmu.Lock()
	defer e.wmu.Unlock()
	select {
	case <-e.closedCh:
		return
	default:
	}
	s := e.shards[si]
	t := e.auth.Copy()
	t.AttachTelemetry(s.tableTel)
	fresh, err := s.bind(t, e.schema, e.pol.Load())
	if err != nil {
		s.lastErr = fmt.Errorf("engine: resync shard %d: %w", si, err)
		return
	}
	s.publish(fresh)
	s.health.Store(int32(Healthy))
	e.rebuildSteering()
	e.resyncCtr.Inc()
	e.quarGauge.Add(-1)
	e.flight.Event(telemetry.EventResync, 0, time.Now().UnixNano(), int64(si))
}

// CorruptReplica forcibly removes resource id from the table of shard si
// while leaving the authoritative table untouched — the software stand-in
// for a pipeline whose table memory no longer matches the control plane
// (bit flip, missed update). The corruption is an ordinary write under the
// shard lock, so a decision never observes a half-written table; the shard
// simply starts returning decisions computed from stale contents until the
// divergence is detected (by the next write touching id, or VerifyReplicas)
// and the shard is quarantined. Fault-injection hook, used by
// internal/fault and the regression tests.
func (e *Engine) CorruptReplica(si, id int) error {
	e.wmu.Lock()
	defer e.wmu.Unlock()
	select {
	case <-e.closedCh:
		return ErrClosed
	default:
	}
	if si < 0 || si >= len(e.shards) {
		return fmt.Errorf("engine: shard %d out of range [0,%d)", si, len(e.shards))
	}
	s := e.shards[si]
	if ShardHealth(s.health.Load()) != Healthy {
		return fmt.Errorf("engine: shard %d is %s, not healthy", si, ShardHealth(s.health.Load()))
	}
	return s.write(func(t *smbm.SMBM) error { return t.Delete(id) })
}

// VerifyReplicas audits every healthy shard against the authoritative table
// and quarantines any replica that silently diverged (e.g. injected
// corruption that no subsequent write has touched). It returns the number of
// shards newly quarantined. This is the detection half of the scrubbing
// loop a control plane would run periodically; the repair half is the
// background resync that quarantine starts.
func (e *Engine) VerifyReplicas() int {
	e.wmu.Lock()
	defer e.wmu.Unlock()
	n := 0
	for si, s := range e.shards {
		if ShardHealth(s.health.Load()) != Healthy {
			continue
		}
		if err := e.verifyShard(s); err != nil {
			e.quarantineLocked(si, err)
			n++
		}
	}
	return n
}

// verifyShard compares a shard's table against the authoritative one:
// contents and per-dimension order, since two tables that hold the same rows
// but broke a tie differently answer a min or max differently. Caller holds
// wmu (no writes in flight); the reads are safe concurrently with a deciding
// caller, because Diff reads membership and the sorted columns and a
// decision writes only the position pointers. The authority is never read
// by a decision, so e.auth needs no shard lock anywhere.
func (e *Engine) verifyShard(s *shard) error {
	if err := s.mod.Table.Diff(e.auth); err != nil {
		return fmt.Errorf("engine: replica diverged from authority: %w", err)
	}
	return nil
}
