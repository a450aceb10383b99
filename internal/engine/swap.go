package engine

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/policy"
	"repro/internal/telemetry"
)

// SwapPolicy replaces the policy every shard executes, without stopping the
// decision path — the serving frontend's live reconfiguration primitive. It
// reuses the epoch-snapshot mechanism that table writes use: per shard, a new
// interpreter is built against each of the two existing replica tables, then
// published exactly like a write (swap the active pointer, wait for the
// reader to drain the retired epoch, replace the retired snapshot). A reader
// therefore always executes a complete program against a complete table; a
// batch racing the swap may mix old-policy and new-policy decisions, but
// every single decision is internally consistent.
//
// The new policy is validated against the engine's schema before anything is
// published; on validation or construction failure the engine keeps serving
// the old policy everywhere. Shards that are quarantined or resyncing when
// the swap lands pick the new policy up when their resync rebuilds them
// (resync always builds from the current policy).
//
// Per-step chain telemetry is labeled for the construction-time policy; when
// the swapped-in program has a different shape those counters detach from the
// affected shards (decision, table and degradation telemetry continue).
//
//thanos:wallclock flight-recorder timestamps are diagnostics, not simulation state
func (e *Engine) SwapPolicy(p *policy.Policy) error {
	e.wmu.Lock()
	defer e.wmu.Unlock()
	select {
	case <-e.closedCh:
		return ErrClosed
	default:
	}
	if p == nil {
		return fmt.Errorf("engine: nil policy")
	}
	if err := p.Validate(e.schema); err != nil {
		return err
	}
	// Build every interpreter before publishing any: a mid-swap failure must
	// not leave some shards on the new policy and some on the old.
	type pending struct {
		s        *shard
		act, shd *policy.Interp
	}
	var plan []pending
	for si, s := range e.shards {
		if ShardHealth(s.health.Load()) != Healthy {
			continue
		}
		act := s.active.Load()
		shadow := s.other(act)
		ia, err := policy.NewInterp(act.table, e.schema, p)
		if err != nil {
			return fmt.Errorf("engine: swap policy on shard %d: %w", si, err)
		}
		is, err := policy.NewInterp(shadow.table, e.schema, p)
		if err != nil {
			return fmt.Errorf("engine: swap policy on shard %d: %w", si, err)
		}
		if s.chainTel != nil && s.chainTel.Steps() == ia.Steps() {
			ia.AttachTelemetry(s.chainTel)
			is.AttachTelemetry(s.chainTel)
		}
		plan = append(plan, pending{s: s, act: ia, shd: is})
	}
	for _, pd := range plan {
		e.swapShard(pd.s, pd.act, pd.shd, p)
	}
	// Publish the policy Policy() reports and later resyncs build from.
	e.pol.Store(p)
	e.polSwaps.Inc()
	e.flight.Event(telemetry.EventSwap, 0, time.Now().UnixNano(), int64(len(plan)))
	return nil
}

// swapShard publishes a new-policy snapshot pair on one shard via the epoch
// protocol: wrap the shadow table with its new interpreter, publish it as the
// active snapshot, wait for the reader to drain the retired epoch, then wrap
// the retired table the same way. After the spin the retired snapshot is
// unreachable (neither active nor pinned), so replacing it is safe. Caller
// holds wmu.
func (e *Engine) swapShard(s *shard, interpAct, interpShd *policy.Interp, p *policy.Policy) {
	act := s.active.Load()
	shadow := s.other(act)
	fresh := &snapshot{table: shadow.table, interp: interpShd, pol: p}
	if s.states[0] == shadow {
		s.states[0] = fresh
	} else {
		s.states[1] = fresh
	}
	s.active.Store(fresh)
	e.swaps.Inc()
	for s.inUse.Load() == act {
		e.waitSpins.Inc()
		runtime.Gosched()
	}
	retired := &snapshot{table: act.table, interp: interpAct, pol: p}
	if s.states[0] == act {
		s.states[0] = retired
	} else {
		s.states[1] = retired
	}
}
