// Package rmt models the slice of a Reconfigurable Match Table pipeline [5]
// that Thanos's architecture relies on (§3): a programmable parser that
// extracts metric values from probe-packet headers, exact-match
// match-action tables, stateful register arrays with RMT's
// one-access-per-packet-per-stage constraint (§2.2), and the event-driven
// queue-length tracking of [10]. The MUX stage that resolves conditional
// policies after the filter module (§4.2.3) is the fallback chain that
// policy.Interp and internal/core evaluate.
//
// The register-array model deliberately enforces the access constraint the
// paper's motivation hinges on — "RMT allows access to at most single entry
// per register array per packet per pipeline stage" — so tests can
// demonstrate why table-wide filtering cannot be expressed in plain RMT.
package rmt

import (
	"encoding/binary"
	"fmt"
)

// FieldSpec describes one header field extracted by the parser: Width bytes
// (1–8, big-endian) at byte Offset.
type FieldSpec struct {
	Name   string
	Offset int
	Width  int
}

// Parser extracts fixed-format header fields from packet bytes, the job RMT
// performs on Thanos probe packets to recover remote metric values (§3).
type Parser struct {
	fields []FieldSpec
}

// NewParser validates the field layout and returns a parser.
func NewParser(fields []FieldSpec) (*Parser, error) {
	if len(fields) == 0 {
		return nil, fmt.Errorf("rmt: parser needs at least one field")
	}
	seen := map[string]bool{}
	for _, f := range fields {
		if f.Name == "" {
			return nil, fmt.Errorf("rmt: unnamed field")
		}
		if seen[f.Name] {
			return nil, fmt.Errorf("rmt: duplicate field %q", f.Name)
		}
		seen[f.Name] = true
		if f.Offset < 0 || f.Width < 1 || f.Width > 8 {
			return nil, fmt.Errorf("rmt: field %q has invalid layout (offset %d, width %d)",
				f.Name, f.Offset, f.Width)
		}
	}
	return &Parser{fields: fields}, nil
}

// Parse extracts all fields from data into a fresh field map. It returns an
// error if the packet is too short for any field.
func (p *Parser) Parse(data []byte) (map[string]uint64, error) {
	out := make(map[string]uint64, len(p.fields))
	for _, f := range p.fields {
		end := f.Offset + f.Width
		if end > len(data) {
			return nil, fmt.Errorf("rmt: packet too short (%d bytes) for field %q ending at %d",
				len(data), f.Name, end)
		}
		var v uint64
		for _, b := range data[f.Offset:end] {
			v = v<<8 | uint64(b)
		}
		out[f.Name] = v
	}
	return out, nil
}

// Serialize writes field values into a byte slice laid out per the parser's
// specs (the inverse of Parse), used to fabricate probe packets.
func (p *Parser) Serialize(fields map[string]uint64) ([]byte, error) {
	size := 0
	for _, f := range p.fields {
		if end := f.Offset + f.Width; end > size {
			size = end
		}
	}
	buf := make([]byte, size)
	for _, f := range p.fields {
		v, ok := fields[f.Name]
		if !ok {
			return nil, fmt.Errorf("rmt: missing value for field %q", f.Name)
		}
		var tmp [8]byte
		binary.BigEndian.PutUint64(tmp[:], v)
		copy(buf[f.Offset:f.Offset+f.Width], tmp[8-f.Width:])
	}
	return buf, nil
}

// PacketContext carries one packet through the pipeline: parsed header
// fields, the metadata bus later stages (and Thanos's filter module) write
// results to, and the drop flag.
type PacketContext struct {
	Fields map[string]uint64
	Meta   map[string]uint64
	Drop   bool
}

// NewPacketContext returns a context with empty field and metadata maps.
func NewPacketContext() *PacketContext {
	return &PacketContext{Fields: map[string]uint64{}, Meta: map[string]uint64{}}
}

// Action is the code a matched table entry runs on the packet.
type Action func(ctx *PacketContext)

// MatchTable is an exact-match match-action table over a fixed key of
// header/metadata fields.
type MatchTable struct {
	name     string
	keys     []string
	capacity int
	entries  map[string]Action
	def      Action
}

// NewMatchTable creates a table matching the given field names with the
// given capacity and default (miss) action; def may be nil for no-op.
func NewMatchTable(name string, keys []string, capacity int, def Action) (*MatchTable, error) {
	if len(keys) == 0 {
		return nil, fmt.Errorf("rmt: table %q needs at least one key field", name)
	}
	if capacity <= 0 {
		return nil, fmt.Errorf("rmt: table %q needs positive capacity", name)
	}
	return &MatchTable{
		name: name, keys: keys, capacity: capacity,
		entries: make(map[string]Action), def: def,
	}, nil
}

// Len returns the number of installed entries.
func (t *MatchTable) Len() int { return len(t.entries) }

func (t *MatchTable) keyString(vals []uint64) (string, error) {
	if len(vals) != len(t.keys) {
		return "", fmt.Errorf("rmt: table %q key arity %d, want %d", t.name, len(vals), len(t.keys))
	}
	buf := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.BigEndian.PutUint64(buf[8*i:], v)
	}
	return string(buf), nil
}

// Install adds or replaces an entry. It fails when the table is full.
func (t *MatchTable) Install(keyVals []uint64, a Action) error {
	k, err := t.keyString(keyVals)
	if err != nil {
		return err
	}
	if _, exists := t.entries[k]; !exists && len(t.entries) >= t.capacity {
		return fmt.Errorf("rmt: table %q full (%d entries)", t.name, t.capacity)
	}
	t.entries[k] = a
	return nil
}

// Remove deletes an entry if present.
func (t *MatchTable) Remove(keyVals []uint64) error {
	k, err := t.keyString(keyVals)
	if err != nil {
		return err
	}
	delete(t.entries, k)
	return nil
}

// Apply looks the packet up (reading key fields from Fields, falling back
// to Meta) and runs the matched or default action. It reports whether an
// entry hit.
func (t *MatchTable) Apply(ctx *PacketContext) (hit bool, err error) {
	vals := make([]uint64, len(t.keys))
	for i, k := range t.keys {
		v, ok := ctx.Fields[k]
		if !ok {
			v, ok = ctx.Meta[k]
		}
		if !ok {
			return false, fmt.Errorf("rmt: table %q: packet missing key field %q", t.name, k)
		}
		vals[i] = v
	}
	key, err := t.keyString(vals)
	if err != nil {
		return false, err
	}
	if a, ok := t.entries[key]; ok {
		if a != nil {
			a(ctx)
		}
		return true, nil
	}
	if t.def != nil {
		t.def(ctx)
	}
	return false, nil
}

// ErrAccessViolation is returned when a packet touches more than one entry
// of a register array within a single stage traversal — the RMT constraint
// of §2.2 that precludes table-wide filtering in the standard pipeline.
var ErrAccessViolation = fmt.Errorf("rmt: register array allows one access per packet per stage")

// RegisterArray is stateful per-stage memory with RMT's single-access
// constraint. Call BeginPacket when a new packet enters the stage.
type RegisterArray struct {
	name     string
	regs     []int64
	accessed bool
}

// NewRegisterArray allocates n zeroed registers.
func NewRegisterArray(name string, n int) (*RegisterArray, error) {
	if n <= 0 {
		return nil, fmt.Errorf("rmt: register array %q needs positive size", name)
	}
	return &RegisterArray{name: name, regs: make([]int64, n)}, nil
}

// Len returns the number of registers.
func (r *RegisterArray) Len() int { return len(r.regs) }

// BeginPacket resets the per-packet access budget.
func (r *RegisterArray) BeginPacket() { r.accessed = false }

// Access performs the packet's single read-modify-write on register i,
// applying f to the old value and storing the result. A second access in
// the same packet returns ErrAccessViolation, and control-flow that needs
// to scan the array (as a filter would) therefore cannot be expressed.
func (r *RegisterArray) Access(i int, f func(old int64) int64) (int64, error) {
	if i < 0 || i >= len(r.regs) {
		return 0, fmt.Errorf("rmt: register %d out of range [0,%d)", i, len(r.regs))
	}
	if r.accessed {
		return 0, ErrAccessViolation
	}
	r.accessed = true
	nv := f(r.regs[i])
	r.regs[i] = nv
	return nv, nil
}

// Peek reads register i from the control plane (not subject to the
// per-packet budget; the data plane must use Access).
func (r *RegisterArray) Peek(i int) int64 { return r.regs[i] }

// QueueTracker maintains per-queue occupancy using the event-driven packet
// processing of [10] (§3): an enqueue event increments the queue's length
// register, a dequeue event decrements it. This is how Thanos keeps the
// DRILL-style local queue-length metric fresh at line rate, and OnChange
// lets the SMBM subscribe to updates.
type QueueTracker struct {
	lengths  []int64
	OnChange func(queue int, newLen int64)
}

// NewQueueTracker tracks n queues starting empty.
func NewQueueTracker(n int) (*QueueTracker, error) {
	if n <= 0 {
		return nil, fmt.Errorf("rmt: queue tracker needs positive queue count")
	}
	return &QueueTracker{lengths: make([]int64, n)}, nil
}

// Enqueue records a packet entering queue q.
func (qt *QueueTracker) Enqueue(q int) { qt.bump(q, 1) }

// Dequeue records a packet leaving queue q. Occupancy never goes negative;
// a stray dequeue is clamped.
func (qt *QueueTracker) Dequeue(q int) { qt.bump(q, -1) }

// Len returns queue q's current occupancy.
func (qt *QueueTracker) Len(q int) int64 { return qt.lengths[q] }

// NumQueues returns the number of tracked queues.
func (qt *QueueTracker) NumQueues() int { return len(qt.lengths) }

func (qt *QueueTracker) bump(q int, d int64) {
	if q < 0 || q >= len(qt.lengths) {
		panic(fmt.Sprintf("rmt: queue %d out of range [0,%d)", q, len(qt.lengths)))
	}
	nv := qt.lengths[q] + d
	if nv < 0 {
		nv = 0
	}
	qt.lengths[q] = nv
	if qt.OnChange != nil {
		qt.OnChange(q, nv)
	}
}
