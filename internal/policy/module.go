package policy

import (
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/smbm"
	"repro/internal/telemetry"
)

// Module bundles a Thanos filter module for runtime use: an SMBM resource
// table plus a policy evaluated with the real filter units (semantically
// identical to the compiled hardware pipeline — see
// TestCompiledMatchesInterp). Resources are abstract ids the caller maps to
// concrete objects (ports, paths, servers).
//
// Metric refreshes that arrive faster than decisions go through Stage: the
// module keeps the newest row per resource and writes the staged rows into
// Table, in the order they were last staged, just before the next read
// (Decide, DecideBatch, Exec) or direct write (Upsert, Remove). Every SMBM
// dimension is sorted by (value, order of last write) — Update re-inserts
// after every equal value — so an overwritten row leaves no trace and the
// flushed table is the one eager Updates would have built. Table is
// current only after such a flush: a caller that stages reads through the
// module, never through Table.
type Module struct {
	Table  *smbm.SMBM
	Policy *Policy
	interp *Interp

	// Staged rows, sized in BindModule: rows[id*m:(id+1)*m] is id's newest
	// metric tuple while id is queued. The queue is a circular doubly
	// linked list in last-stage order through next/prev; index capacity is
	// its sentinel, and next[id] == -1 means id is not queued.
	rows       []int64
	next, prev []int32
}

// StepLabels exposes the interpreter's per-step labels so callers can
// register matching chain telemetry.
func (m *Module) StepLabels() []string { return m.interp.StepLabels() }

// Steps returns the number of steps in the module's evaluation program, the
// length a ChainStats must have to attach (see Interp.Steps).
func (m *Module) Steps() int { return m.interp.Steps() }

// AttachTelemetry wires per-step chain selectivity into the module. Pass
// nil to detach.
func (m *Module) AttachTelemetry(cs *telemetry.ChainStats) {
	m.interp.AttachTelemetry(cs)
}

// NewModule builds a module with capacity resources, the given attribute
// schema, and a policy (typically from Parse).
func NewModule(capacity int, schema Schema, pol *Policy) (*Module, error) {
	return BindModule(smbm.New(capacity, len(schema.Attrs)), schema, pol)
}

// BindModule builds a module for pol over an existing table, which keeps its
// contents: a new policy for a live table, or a module over a copy of
// another table. Nothing may be staged on another module over the same
// table, since this module neither sees nor flushes those rows.
func BindModule(table *smbm.SMBM, schema Schema, pol *Policy) (*Module, error) {
	it, err := NewInterp(table, schema, pol)
	if err != nil {
		return nil, err
	}
	capacity := table.Capacity()
	m := &Module{
		Table: table, Policy: pol, interp: it,
		rows: make([]int64, capacity*table.NumMetrics()),
		next: make([]int32, capacity+1),
		prev: make([]int32, capacity+1),
	}
	for id := range m.next {
		m.next[id] = -1
	}
	m.next[capacity], m.prev[capacity] = int32(capacity), int32(capacity)
	return m, nil
}

// Upsert installs or refreshes a resource's metrics — the operation probe
// processing performs (§3 of the paper).
func (m *Module) Upsert(id int, vals []int64) error {
	m.flush()
	return m.Table.Upsert(id, vals)
}

// Remove deletes a resource from the table (e.g. a failed server).
func (m *Module) Remove(id int) error {
	m.flush()
	return m.Table.Delete(id)
}

// Stage records vals as the present resource id's new metric tuple, to be
// written into the table before the next read or direct write. Staging id
// again replaces the row and moves id to the back of the write order. It
// fails with the errors Table.Update would return, at stage time.
func (m *Module) Stage(id int, vals []int64) error {
	nm := m.Table.NumMetrics()
	if len(vals) != nm {
		return fmt.Errorf("%w: got %d, want %d", smbm.ErrMetricsArity, len(vals), nm)
	}
	if !m.Table.Contains(id) {
		return fmt.Errorf("%w: %d", smbm.ErrNotFound, id)
	}
	copy(m.rows[id*nm:id*nm+nm], vals)
	if n := m.next[id]; n >= 0 { // queued already: unlink, it moves to the back
		p := m.prev[id]
		m.next[p], m.prev[n] = n, p
	}
	end := int32(len(m.next) - 1)
	last := m.prev[end]
	m.next[last], m.prev[id] = int32(id), last
	m.next[id], m.prev[end] = end, int32(id)
	return nil
}

// MetricsInto overwrites dst with the resource's newest metric tuple, staged
// or in the table, and reports whether the resource is present; absent, dst
// is untouched. dst must have length Table.NumMetrics(). It does not flush.
func (m *Module) MetricsInto(id int, dst []int64) bool {
	if !m.Table.Contains(id) {
		return false
	}
	if m.next[id] < 0 {
		return m.Table.MetricsInto(id, dst)
	}
	nm := m.Table.NumMetrics()
	copy(dst, m.rows[id*nm:id*nm+nm])
	return true
}

// flush writes the staged rows into the table in last-stage order and
// empties the queue.
func (m *Module) flush() {
	end := int32(len(m.next) - 1)
	nm := m.Table.NumMetrics()
	for id := m.next[end]; id != end; {
		row := m.rows[int(id)*nm : int(id)*nm+nm]
		if err := m.Table.Update(int(id), row); err != nil {
			panic(err) // Stage checked both; Upsert and Remove flush before they write
		}
		n := m.next[id]
		m.next[id] = -1
		id = n
	}
	m.next[end], m.prev[end] = end, end
}

// Batch returns an n-packet column for DecideBatch: module scratch, valid
// until the next Batch, Decide, DecideBatch or Exec.
//
// Amortized: it grows only when a batch is larger than any before it on
// this module; the steady state is a re-slice.
func (m *Module) Batch(n int) []int { return m.interp.Batch(n) }

// DecideBatch decides a Batch column in arrival order: packet j's output
// index at col[j] is replaced by its id after fallback resolution, -1 when
// the chain ends empty or the output does not exist (those count in
// failed). Staged rows are written first, and the per-step chain counts of
// the batch are published once, at the end.
func (m *Module) DecideBatch(col []int) (failed int) {
	m.flush()
	failed = m.interp.DecideBatch(col)
	m.interp.FlushStats(uint64(len(col) - failed))
	return failed
}

// Decide executes the policy for one packet and returns the selected
// resource id from output 0 (after fallback resolution). ok is false when
// even the fallback produced an empty table. It is DecideBatch's one-packet
// case.
func (m *Module) Decide() (id int, ok bool) {
	col := m.Batch(1)
	col[0] = 0
	m.DecideBatch(col)
	if col[0] < 0 {
		return 0, false
	}
	return col[0], true
}

// Exec evaluates the policy and returns the raw output tables, for callers
// that need more than a single id (e.g. diagnosis queries that filter a
// set). The tables are read-only views of the interpreter's buffers, valid
// until the next write to the table or the next Exec or Decide (see
// Interp.Exec); copy what must outlive that, never modify them in place.
func (m *Module) Exec() []*bitvec.Vector {
	m.flush()
	return m.interp.Exec()
}

// ResetState resets the stateful filter units (round-robin, LFSRs).
func (m *Module) ResetState() { m.interp.ResetState() }
