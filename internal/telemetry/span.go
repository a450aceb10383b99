package telemetry

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// SpanKind names one phase of a request's cross-layer timeline or one
// component state transition. Phases carry a Start/End pair; events are
// instants (Start == End).
type SpanKind uint8

// Phase spans (cross-layer request timeline, stitched by trace ID).
const (
	// SpanEnqueue: client-side admission — the call entered the inflight
	// window and is waiting to be written.
	SpanEnqueue SpanKind = iota + 1
	// SpanWire: the frame's socket write until the server finished reading
	// and decoding it (client send -> server recv).
	SpanWire
	// SpanDecide: backend execution — engine.DecideBatch across the shards.
	SpanDecide
	// SpanEncode: reply encoding on the server. The socket write follows
	// once the connection has no further request buffered and is not in
	// the span; SpanReply, on the client clock, covers it.
	SpanEncode
	// SpanReply: reply flight + client-side demux (server done -> caller
	// woken with the decoded ids).
	SpanReply
)

// Event spans (component state transitions, flight-recorder material).
const (
	// EventQuarantine: the engine rebuilt a diverged replica from shard 0's
	// table (Arg: the shard).
	EventQuarantine SpanKind = iota + 32
	EventSwap
	EventReconnect
	EventProtoErr
	EventConnOpen
	EventConnClose
	// EventWriteTimeout: the server closed a connection whose peer stopped
	// reading replies.
	EventWriteTimeout
)

var spanKindNames = map[SpanKind]string{
	SpanEnqueue:       "enqueue",
	SpanWire:          "wire",
	SpanDecide:        "decide",
	SpanEncode:        "encode",
	SpanReply:         "reply",
	EventQuarantine:   "quarantine",
	EventSwap:         "swap",
	EventReconnect:    "reconnect",
	EventProtoErr:     "proto_error",
	EventConnOpen:     "conn_open",
	EventConnClose:    "conn_close",
	EventWriteTimeout: "write_timeout",
}

// String returns the stable lower-case name used in JSON exports.
func (k SpanKind) String() string {
	if s, ok := spanKindNames[k]; ok {
		return s
	}
	return "unknown"
}

// Event reports whether k is a state-transition event rather than a
// request phase.
func (k SpanKind) Event() bool { return k >= EventQuarantine }

// Span is one recorded phase or event. Start/End are unix nanoseconds from
// the recording process's clock; Arg is kind-specific (batch size for
// decide phases, shard index for a replica rebuild, request seq, ...).
// Seq is the ring claim order and doubles as the validity marker: a zero
// Seq is an empty slot.
type Span struct {
	Seq     uint64   `json:"seq"`
	TraceID uint64   `json:"trace_id,omitempty"`
	Kind    SpanKind `json:"-"`
	Start   int64    `json:"start_ns"`
	End     int64    `json:"end_ns"`
	Arg     int64    `json:"arg,omitempty"`
}

// spanJSON adds the kind name to the export view.
type spanJSON struct {
	Span
	KindName string `json:"kind"`
}

// spanSlot is one seqlock-protected ring slot. ver is odd while a writer
// is mid-update; readers retry (bounded) on odd or changed versions. All
// fields are atomics so concurrent seqlock reads are race-clean; seqKind
// packs the claim sequence (high 56 bits) with the kind (low 8).
type spanSlot struct {
	ver     atomic.Uint64
	seqKind atomic.Uint64
	trace   atomic.Uint64
	start   atomic.Int64
	end     atomic.Int64
	arg     atomic.Int64
}

// SpanRing is a fixed ring of recent spans shared by many writers.
// Record claims a slot with one atomic increment plus a CAS and publishes
// through a per-slot seqlock — no locks, no allocation — so it is safe on
// packet paths and inside the engine's shard visits. Readers
// (Snapshot) are scrape-path only and tolerate writers: a slot caught
// mid-write is skipped. Under extreme wrap pressure two writers can claim
// the same slot concurrently; the CAS makes the later one drop its record
// instead of blending fields, which is the right trade for a best-effort
// flight recorder. A nil *SpanRing ignores records, so instrumented code
// needs no wiring guards.
type SpanRing struct {
	name  string
	next  atomic.Uint64
	slots []spanSlot
}

// NewSpanRing returns a ring holding the most recent capacity spans.
// capacity is clamped to at least 1.
func NewSpanRing(name string, capacity int) *SpanRing {
	if capacity < 1 {
		capacity = 1
	}
	return &SpanRing{name: name, slots: make([]spanSlot, capacity)}
}

// Name returns the component name the ring was created under.
func (r *SpanRing) Name() string {
	if r == nil {
		return ""
	}
	return r.name
}

// Record stores one span, overwriting the oldest. Zero-alloc, lock-free,
// nil-safe.
func (r *SpanRing) Record(kind SpanKind, traceID uint64, start, end, arg int64) {
	if r == nil {
		return
	}
	seq := r.next.Add(1)
	s := &r.slots[(seq-1)%uint64(len(r.slots))]
	v := s.ver.Load()
	if v&1 != 0 || !s.ver.CompareAndSwap(v, v+1) {
		// Another writer lapped the ring onto this slot mid-write; drop
		// rather than blend two spans' fields.
		return
	}
	s.seqKind.Store(seq<<8 | uint64(kind))
	s.trace.Store(traceID)
	s.start.Store(start)
	s.end.Store(end)
	s.arg.Store(arg)
	s.ver.Add(1) // even again: stable
}

// Event records an instantaneous state transition at now.
func (r *SpanRing) Event(kind SpanKind, traceID uint64, now, arg int64) {
	r.Record(kind, traceID, now, now, arg)
}

// Snapshot copies out the currently stable spans in ascending record
// order. Scrape-path only; allocates freely.
func (r *SpanRing) Snapshot() []Span {
	if r == nil {
		return nil
	}
	out := make([]Span, 0, len(r.slots))
	for i := range r.slots {
		s := &r.slots[i]
		// Seqlock read: version must be even and unchanged across the copy.
		// A handful of retries rides out an in-progress write; a slot that
		// stays unstable is being rewritten faster than we can read it and
		// is dropped.
		for attempt := 0; attempt < 4; attempt++ {
			v1 := s.ver.Load()
			if v1%2 != 0 {
				continue
			}
			sk := s.seqKind.Load()
			sp := Span{
				Seq:     sk >> 8,
				TraceID: s.trace.Load(),
				Kind:    SpanKind(sk & 0xff),
				Start:   s.start.Load(),
				End:     s.end.Load(),
				Arg:     s.arg.Load(),
			}
			if s.ver.Load() != v1 {
				continue
			}
			if sp.Seq != 0 {
				out = append(out, sp)
			}
			break
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Seq < out[b].Seq })
	return out
}

// FlightRecorder is an always-on set of per-component span rings plus an
// auto-dump hook: components record continuously into their rings for
// ~free, and when something trips (replica rebuild, soak failure,
// SIGQUIT) the recent history is dumped as JSON. The zero value is not
// usable; a nil *FlightRecorder hands out nil rings, so wiring is
// optional end to end.
type FlightRecorder struct {
	mu    sync.Mutex
	rings []*SpanRing
	dumpW io.Writer
	trips atomic.Uint64
}

// NewFlightRecorder returns an empty recorder.
func NewFlightRecorder() *FlightRecorder { return &FlightRecorder{} }

// Ring returns the component's ring, creating it with the given capacity
// on first use. Nil-safe (returns a nil ring that ignores records).
func (f *FlightRecorder) Ring(component string, capacity int) *SpanRing {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, r := range f.rings {
		if r.name == component {
			return r
		}
	}
	r := NewSpanRing(component, capacity)
	f.rings = append(f.rings, r)
	return r
}

// SetAutoDump directs Trip dumps to w (stderr in thanosd).
func (f *FlightRecorder) SetAutoDump(w io.Writer) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.dumpW = w
	f.mu.Unlock()
}

// Trips returns how many times the recorder has tripped.
func (f *FlightRecorder) Trips() uint64 {
	if f == nil {
		return 0
	}
	return f.trips.Load()
}

// Snapshot returns the stable contents of every component ring.
func (f *FlightRecorder) Snapshot() map[string][]Span {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	rings := append([]*SpanRing(nil), f.rings...)
	f.mu.Unlock()
	out := make(map[string][]Span, len(rings))
	for _, r := range rings {
		out[r.name] = r.Snapshot()
	}
	return out
}

// flightDump is the JSON shape of one dump.
type flightDump struct {
	Reason     string                `json:"reason,omitempty"`
	Trips      uint64                `json:"trips"`
	Components map[string][]spanJSON `json:"components"`
}

// WriteJSON writes the recorder contents as JSON.
func (f *FlightRecorder) WriteJSON(w io.Writer, reason string) error {
	if f == nil {
		return nil
	}
	dump := flightDump{
		Reason:     reason,
		Trips:      f.trips.Load(),
		Components: map[string][]spanJSON{},
	}
	for name, spans := range f.Snapshot() {
		js := make([]spanJSON, len(spans))
		for i, sp := range spans {
			js[i] = spanJSON{Span: sp, KindName: sp.Kind.String()}
		}
		dump.Components[name] = js
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(dump)
}

// Trip records an incident and dumps the recorder to the auto-dump writer
// (when one is set). Safe from any goroutine; never call it under a hot
// lock — it performs I/O.
func (f *FlightRecorder) Trip(reason string) {
	if f == nil {
		return
	}
	f.trips.Add(1)
	f.mu.Lock()
	w := f.dumpW
	f.mu.Unlock()
	if w != nil {
		_ = f.WriteJSON(w, reason)
	}
}

// StitchTrace pulls every span carrying traceID out of the per-component
// snapshot and orders them by start time: the single cross-layer timeline
// of one sampled request.
func StitchTrace(comps map[string][]Span, traceID uint64) []Span {
	var out []Span
	for _, spans := range comps {
		for _, sp := range spans {
			if sp.TraceID == traceID && traceID != 0 {
				out = append(out, sp)
			}
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Start != out[b].Start {
			return out[a].Start < out[b].Start
		}
		return out[a].Seq < out[b].Seq
	})
	return out
}

// chromeEvent is one entry of the Chrome trace_event format
// (chrome://tracing, Perfetto).
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	Ts   uint64         `json:"ts"`
	Dur  uint64         `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int32          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteSpanChromeTrace writes per-component spans in Chrome trace_event
// JSON: each component renders as its own process row, phases as complete
// ("X") events and state transitions as instant ("i") events, with
// timestamps rebased to the earliest span so the timeline starts at zero.
func WriteSpanChromeTrace(w io.Writer, comps map[string][]Span) error {
	ct := chromeTrace{DisplayTimeUnit: "ns", TraceEvents: []chromeEvent{}}
	var base int64
	for _, spans := range comps {
		for _, sp := range spans {
			if base == 0 || (sp.Start != 0 && sp.Start < base) {
				base = sp.Start
			}
		}
	}
	names := make([]string, 0, len(comps))
	for name := range comps {
		names = append(names, name)
	}
	sort.Strings(names)
	for pid, name := range names {
		for _, sp := range comps[name] {
			ev := chromeEvent{
				Name: sp.Kind.String(),
				Cat:  name,
				Ph:   "X",
				Ts:   uint64(sp.Start-base) / 1000,
				Dur:  uint64(sp.End-sp.Start) / 1000,
				Pid:  pid + 1,
				Tid:  int32(sp.TraceID & 0x7fffffff),
				Args: map[string]any{"trace_id": sp.TraceID, "arg": sp.Arg, "seq": sp.Seq},
			}
			if sp.Kind.Event() {
				ev.Ph = "i"
				ev.Dur = 0
			}
			if ev.Ph == "X" && ev.Dur == 0 {
				ev.Dur = 1
			}
			ct.TraceEvents = append(ct.TraceEvents, ev)
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(ct)
}
