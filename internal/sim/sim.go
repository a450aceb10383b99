// Package sim is the discrete-event simulation kernel underneath the
// packet-level network simulator (§7.2.1): a time-ordered event queue with
// deterministic FIFO tie-breaking, nanosecond-resolution virtual time, and a
// seeded random source, so every experiment in the harness is exactly
// reproducible.
//
// Events execute in the strict total order (at, pri, seq). The queue keeps
// them in two places: a timing wheel of one-nanosecond slots for events due
// within horizon of now (every packet hop), and a binary min-heap, far, for
// the rest (timers); the run loop executes the smaller of the wheel minimum
// and the far root under the one less, so where an event sits decides only
// what it costs. Both reuse their storage — the wheel a pooled node array
// with a free list, the heap its backing array — so the steady-state cost of
// After/Run cycles is zero heap allocations (the caller's closure aside).
package sim

import (
	"fmt"
	"math/bits"
	"math/rand"
)

// Time is virtual simulation time in nanoseconds.
type Time int64

// Common durations.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000
	Millisecond Time = 1000 * 1000
	Second      Time = 1000 * 1000 * 1000
)

// MaxTime is the largest representable virtual time. Run uses it as its
// deadline, and callers can use it as an "unbounded" sentinel for RunUntil.
const MaxTime = Time(1<<62 - 1)

// String renders the time with a readable unit.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.3fs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	}
	return fmt.Sprintf("%dns", int64(t))
}

// Seconds converts to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// event is one queued callback with its sort key.
type event struct {
	at  Time
	pri uint64 // caller-supplied tie-break before seq; 0 for At/After
	seq uint64 // FIFO tie-break for simultaneous same-priority events
	fn  func()
}

// horizon is the timing wheel's span: an event due less than horizon after
// now goes to the wheel, anything later to the far heap. Now never passes a
// pending event, so every wheel event lies in [now, now+horizon): a slot,
// at mod horizon, holds one timestamp, and the first occupied slot from now's
// slot onwards, cyclically, holds the wheel minimum. The value decides cost,
// never order. It covers every default per-hop delay (MTU serialization
// 1.2 µs, propagation 1 µs) and leaves the metric ticks (100 µs) and the tens
// of thousands of standing retransmission timers (1 ms) to the heap. The
// occupancy bitmap's one summary word caps it at 64×64 slots.
const horizon = Time(1) << 12

// wheel is a ring of horizon one-nanosecond slots. Each slot is an intrusive
// list, in (pri, seq) order, over a pooled node array whose node 0 is unused
// so a zero index means "none"; freed nodes go on a free list. bits has one
// bit per occupied slot and summary one bit per non-zero word of bits.
type wheel struct {
	head    [horizon]int32
	bits    [horizon / 64]uint64
	summary uint64
	nodes   []node
	free    int32 // free-list head, linked through node.next
	n       int
}

type node struct {
	event
	next int32
}

// push files e into its slot behind every event of lower or equal pri: seq
// only grows, so equal pri keeps scheduling order.
func (w *wheel) push(e event) {
	i := w.free
	if i != 0 {
		w.free = w.nodes[i].next
	} else {
		i = int32(len(w.nodes))
		w.nodes = append(w.nodes, node{})
	}
	slot := int(e.at & (horizon - 1))
	p := &w.head[slot]
	for *p != 0 && w.nodes[*p].pri <= e.pri {
		p = &w.nodes[*p].next
	}
	// Store the fields in place: a node{...} literal is built on the stack
	// and copied with wide loads that stall on store forwarding.
	nd := &w.nodes[i]
	nd.event = e
	nd.next = *p
	*p = i
	w.bits[slot>>6] |= 1 << (slot & 63)
	w.summary |= 1 << (slot >> 6)
	w.n++
}

// next returns the first occupied slot at or after from, wrapping once; the
// wheel must not be empty.
func (w *wheel) next(from int) int {
	i := from >> 6
	if m := w.bits[i] >> (from & 63); m != 0 {
		return from + bits.TrailingZeros64(m)
	}
	m := w.summary &^ (uint64(2)<<i - 1) // the words after i
	if m == 0 {
		m = w.summary // wrapped: the minimum lies below from
	}
	i = bits.TrailingZeros64(m)
	return i<<6 + bits.TrailingZeros64(w.bits[i])
}

// pop unlinks the head of slot and returns its node to the free list.
func (w *wheel) pop(slot int) {
	i := w.head[slot]
	nd := &w.nodes[i]
	w.head[slot] = nd.next
	nd.fn = nil // release the closure for GC
	nd.next, w.free = w.free, i
	w.n--
	if w.head[slot] == 0 {
		if w.bits[slot>>6] &^= 1 << (slot & 63); w.bits[slot>>6] == 0 {
			w.summary &^= 1 << (slot >> 6)
		}
	}
}

// Scheduler executes events in virtual-time order. The zero value is not
// usable; construct with New.
type Scheduler struct {
	now     Time
	seq     uint64
	wheel   wheel   // events due within horizon when scheduled
	far     []event // min-heap under less: everything scheduled further ahead
	stopped bool
	rng     *rand.Rand
}

// New returns a scheduler at time zero with a deterministic random source.
func New(seed int64) *Scheduler {
	s := &Scheduler{rng: rand.New(rand.NewSource(seed))}
	s.wheel.nodes = make([]node, 1)
	return s
}

// Now returns the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// Rand returns the scheduler's deterministic random source.
func (s *Scheduler) Rand() *rand.Rand { return s.rng }

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it always indicates a modelling bug.
func (s *Scheduler) At(t Time, fn func()) { s.AtPri(t, 0, fn) }

// AtPri schedules fn at absolute time t with an explicit tie-break
// priority. Events at equal times execute in ascending pri order; equal
// (time, pri) pairs fall back to scheduling-order FIFO. Callers that want an
// execution order independent of the order in which events happened to be
// scheduled (netsim's event classes) derive pri from simulation content — a
// port id, a flow id — instead of relying on the FIFO fallback.
func (s *Scheduler) AtPri(t Time, pri uint64, fn func()) {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	s.seq++
	e := event{at: t, pri: pri, seq: s.seq, fn: fn}
	if t-s.now < horizon {
		s.wheel.push(e)
	} else {
		s.far = push(s.far, e)
	}
}

// After schedules fn to run d nanoseconds from now.
func (s *Scheduler) After(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	s.At(s.now+d, fn)
}

// AfterPri schedules fn d nanoseconds from now with an explicit tie-break
// priority; see AtPri.
func (s *Scheduler) AfterPri(d Time, pri uint64, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	s.AtPri(s.now+d, pri, fn)
}

// Pending returns the number of queued events.
func (s *Scheduler) Pending() int { return s.wheel.n + len(s.far) }

// Stop latches the scheduler stopped: the in-progress Run/RunUntil call
// returns after the current event completes, and every later run call
// returns immediately, executing nothing. Pending events stay queued.
//
// The latch is sticky by design. A simulation is often driven as a
// sequence of short RunUntil slices, so a Stop issued between slices — or
// from a callback in one slice — must hold for the next one instead of
// being silently cleared by it.
func (s *Scheduler) Stop() { s.stopped = true }

// Stopped reports whether the stop latch is set.
func (s *Scheduler) Stopped() bool { return s.stopped }

// Run executes events until the queue empties or Stop is called, leaving
// Now at the time of the last executed event. It returns the number of
// events executed. If the stop latch is set it returns 0 immediately.
func (s *Scheduler) Run() int { return s.run(MaxTime, false) }

// RunUntil executes events with timestamps ≤ deadline, stopping when the
// queue empties, Stop is called, or the next event lies beyond the
// deadline. Unless stopped, Now finishes at the deadline. It returns the
// number of events executed. If the stop latch is set it returns 0
// immediately.
func (s *Scheduler) RunUntil(deadline Time) int { return s.run(deadline, true) }

func (s *Scheduler) run(deadline Time, advance bool) int {
	count := 0
	w := &s.wheel
	for !s.stopped {
		var e *event
		slot := 0
		if w.n > 0 {
			slot = w.next(int(s.now & (horizon - 1)))
			e = &w.nodes[w.head[slot]].event
		}
		far := len(s.far) > 0 && (e == nil || less(&s.far[0], e))
		if far {
			e = &s.far[0]
		} else if e == nil {
			break
		}
		at, fn := e.at, e.fn
		if at > deadline {
			s.now = deadline
			return count
		}
		// Remove before invoking, so a nested At/After inside fn sees a
		// consistent queue.
		if far {
			s.far = pop(s.far)
		} else {
			w.pop(slot)
		}
		s.now = at
		fn()
		count++
	}
	if advance && !s.stopped && s.now < deadline {
		s.now = deadline
	}
	return count
}

// less orders events by (at, pri, seq); seq is unique, so the order is a
// strict total order and neither heap layout nor whether an event sits in
// the wheel or the heap can ever change the execution order.
func less(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.pri != b.pri {
		return a.pri < b.pri
	}
	return a.seq < b.seq
}

// push adds e at the bottom and sifts it up.
func push(h []event, e event) []event {
	h = append(h, e)
	siftUp(h, len(h)-1, e)
	return h
}

// siftUp fills the hole at i with e: parents move down into the hole until
// e fits.
func siftUp(h []event, i int, e event) {
	for i > 0 {
		p := (i - 1) / 2
		if !less(&e, &h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
}

// pop removes the root, bottom-up: the hole it leaves sinks to a leaf, the
// smaller child moving up into it at each level, and the former last element
// is sifted up from there. It came from the bottom and mostly belongs there,
// so that is one compare per level where testing it against each level's
// smaller child costs two.
func pop(h []event) []event {
	n := len(h) - 1
	e := h[n]
	h[n].fn = nil // release the closure for GC
	h = h[:n]
	if n == 0 {
		return h
	}
	i := 0
	for c := 1; c < n; c = 2*i + 1 {
		if c+1 < n && less(&h[c+1], &h[c]) {
			c++
		}
		h[i] = h[c]
		i = c
	}
	siftUp(h, i, e)
	return h
}
