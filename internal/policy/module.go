package policy

import (
	"repro/internal/bitvec"
	"repro/internal/smbm"
	"repro/internal/telemetry"
)

// Module bundles a Thanos filter module for runtime use: an SMBM resource
// table plus a policy evaluated with the real filter units (semantically
// identical to the compiled hardware pipeline — see
// TestCompiledMatchesInterp). Resources are abstract ids the caller maps to
// concrete objects (ports, paths, servers).
type Module struct {
	Table  *smbm.SMBM
	Policy *Policy
	interp *Interp
	stats  *telemetry.DecideStats // nil unless AttachTelemetry was called
	tracer *telemetry.Tracer      // ditto
}

// StepLabels exposes the interpreter's per-step labels so callers can
// register matching chain telemetry.
func (m *Module) StepLabels() []string { return m.interp.StepLabels() }

// AttachTelemetry wires decision counters, per-step chain selectivity and
// an optional sampled tracer into the module. Any argument may be nil to
// leave that aspect uninstrumented.
func (m *Module) AttachTelemetry(cs *telemetry.ChainStats, ds *telemetry.DecideStats, tracer *telemetry.Tracer) {
	m.interp.AttachTelemetry(cs)
	m.stats = ds
	m.tracer = tracer
}

// NewModule builds a module with capacity resources, the given attribute
// schema, and a policy (typically from Parse).
func NewModule(capacity int, schema Schema, pol *Policy) (*Module, error) {
	table := smbm.New(capacity, len(schema.Attrs))
	it, err := NewInterp(table, schema, pol)
	if err != nil {
		return nil, err
	}
	return &Module{Table: table, Policy: pol, interp: it}, nil
}

// Upsert installs or refreshes a resource's metrics — the operation probe
// processing performs (§3 of the paper).
func (m *Module) Upsert(id int, vals []int64) error {
	return m.Table.Upsert(id, vals)
}

// Remove deletes a resource from the table (e.g. a failed server).
func (m *Module) Remove(id int) error {
	return m.Table.Delete(id)
}

// Decide executes the policy for one packet and returns the selected
// resource id from output 0 (after fallback resolution). ok is false when
// even the fallback produced an empty table.
func (m *Module) Decide() (id int, ok bool) {
	tr := m.tracer.Sample()
	id = m.interp.Decide(tr, 0)
	m.interp.FlushStats(1) // single-threaded module: publish per decision
	ok = id >= 0
	if ds := m.stats; ds != nil {
		ds.Decisions.Inc()
		if !ok {
			ds.Empty.Inc()
		}
	}
	tr.Finish(0, id, ok)
	if !ok {
		return 0, false
	}
	return id, true
}

// TraceSnapshot returns the sampled decision traces. The module is
// single-threaded, so callers snapshot between Decide calls.
func (m *Module) TraceSnapshot() []telemetry.Trace { return m.tracer.Snapshot() }

// Metrics returns a copy of the resource's current metric tuple, or ok=false
// if the resource is absent.
func (m *Module) Metrics(id int) ([]int64, bool) {
	return m.Table.Metrics(id)
}

// Exec evaluates the policy and returns the raw output tables, for callers
// that need more than a single id (e.g. diagnosis queries that filter a
// set). The tables are read-only views of the interpreter's buffers, valid
// until the next write to the table or the next Exec or Decide (see
// Interp.Exec); copy what must outlive that, never modify them in place.
func (m *Module) Exec() []*bitvec.Vector { return m.interp.Exec() }

// ResetState resets the stateful filter units (round-robin, LFSRs).
func (m *Module) ResetState() { m.interp.ResetState() }
