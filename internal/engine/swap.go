package engine

import (
	"fmt"
	"time"

	"repro/internal/policy"
	"repro/internal/smbm"
	"repro/internal/telemetry"
)

// SwapPolicy replaces the policy every shard executes, without stopping the
// decision path — the serving frontend's live reconfiguration primitive. Per
// shard a new module is bound to the shard's existing table with no
// shard lock held; only then is each shard's lock taken, just long enough to
// replace its module pointer. A decision therefore never waits on
// interpreter construction and always executes a complete program against a
// complete table; a batch racing the swap may mix old-policy and new-policy
// decisions, but every single decision is internally consistent.
//
// The new policy is validated against the engine's schema before anything is
// published; on validation or construction failure the engine keeps serving
// the old policy everywhere. A later replica rebuild binds the policy
// published here, and NewInterp rejects nothing that Validate accepts over a
// table of the engine's schema, so that rebuild cannot fail.
//
// Per-step chain telemetry is labeled for the construction-time policy; when
// the swapped-in program has a different shape those counters detach from the
// affected shards (decision, table and rebuild telemetry continue).
func (e *Engine) SwapPolicy(p *policy.Policy) error {
	e.wmu.Lock()
	defer e.wmu.Unlock()
	if e.closed.Load() {
		return ErrClosed
	}
	if p == nil {
		return fmt.Errorf("engine: nil policy")
	}
	if err := p.Validate(e.schema); err != nil {
		return err
	}
	// Build every module before publishing any: a mid-swap failure must not
	// leave some shards on the new policy and some on the old.
	type pending struct {
		s     *shard
		fresh *policy.Module
	}
	plan := make([]pending, 0, len(e.shards))
	for si, s := range e.shards {
		fresh, err := s.bind(s.mod.Table, e.schema, p)
		if err != nil {
			return fmt.Errorf("engine: swap policy on shard %d: %w", si, err)
		}
		plan = append(plan, pending{s: s, fresh: fresh})
	}
	for _, pd := range plan {
		pd.s.publish(pd.fresh)
	}
	// Publish the policy Policy() reports and later rebuilds bind.
	e.pol.Store(p)
	e.polSwaps.Inc()
	e.flight.Event(telemetry.EventSwap, 0, time.Now().UnixNano(), int64(len(plan)))
	return nil
}

// bind builds this shard's module for pol over table t (policy.BindModule)
// and attaches the shard's chain telemetry. Those counters are labeled per
// program step at construction time; after a hot-swap to a program of
// another shape they no longer apply and the module runs unattached (table
// and decision counters continue). Binding reads only t's capacity, its
// metric count and the address of its membership vector, none of which
// changes, so SwapPolicy may bind over a live shard's table under wmu alone
// while a decision repairs that table's positions.
func (s *shard) bind(t *smbm.SMBM, schema policy.Schema, pol *policy.Policy) (*policy.Module, error) {
	m, err := policy.BindModule(t, schema, pol)
	if err != nil {
		return nil, err
	}
	if s.chainTel != nil && s.chainTel.Steps() == m.Steps() {
		m.AttachTelemetry(s.chainTel)
	}
	return m, nil
}

// publish replaces the shard's module with one built beforehand: the shard
// lock covers a single pointer store. Caller holds wmu.
func (s *shard) publish(fresh *policy.Module) {
	s.mu.Lock()
	s.mod = fresh
	s.mu.Unlock()
}
