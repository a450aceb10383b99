// Package sim is the discrete-event simulation kernel underneath the
// packet-level network simulator (§7.2.1): a time-ordered event queue with
// deterministic FIFO tie-breaking, nanosecond-resolution virtual time, and a
// seeded random source, so every experiment in the harness is exactly
// reproducible.
//
// The event queue is a pair of binary min-heaps under one order that hold
// the events themselves, keys beside the callback, compared in place; see
// horizon for why there are two. Scheduling writes into a heap's own backing
// array, so the steady-state cost of After/Run cycles is zero heap
// allocations (the caller's closure aside).
package sim

import (
	"fmt"
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

// horizon splits the queue: an event scheduled further ahead goes to the far
// heap, and the run loop executes whichever root is smaller under less, so
// correctness never depends on the value — only how many events the hot
// heap holds does. A packet simulation keeps a few hundred hop events in
// flight (every per-hop delay ≤ serialization + propagation ≈ 2.2 µs) beside
// tens of thousands of superseded retransmission timers waiting out a 1 ms
// RTO; with those out of the way the hop events sift through a heap that
// fits in L1. Anything between the two delay classes separates them.
const horizon = 16 * Microsecond

// Scheduler executes events in virtual-time order. The zero value is not
// usable; construct with New.
type Scheduler struct {
	now     Time
	seq     uint64
	near    []event // min-heap under less: events due within horizon when scheduled
	far     []event // same order: everything scheduled further ahead
	stopped bool
	rng     *rand.Rand
}

// New returns a scheduler at time zero with a deterministic random source.
func New(seed int64) *Scheduler {
	return &Scheduler{rng: rand.New(rand.NewSource(seed))}
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
// (time, pri) pairs fall back to scheduling-order FIFO. Callers that need
// an execution order independent of the order in which events happened to
// be scheduled (the parallel netsim driver's determinism contract) derive
// pri from simulation content — a port id, a flow id — instead of relying
// on the FIFO fallback.
func (s *Scheduler) AtPri(t Time, pri uint64, fn func()) {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, s.now))
	}
	s.seq++
	e := event{at: t, pri: pri, seq: s.seq, fn: fn}
	if t-s.now > horizon {
		s.far = push(s.far, e)
	} else {
		s.near = push(s.near, e)
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
func (s *Scheduler) Pending() int { return len(s.near) + len(s.far) }

// Stop latches the scheduler stopped: the in-progress Run/RunUntil/
// RunWindow call returns after the current event completes, and every
// later run call returns immediately (executing nothing) until Resume
// clears the latch.
//
// The latch is sticky by design. The windowed parallel driver runs a
// scheduler as a sequence of short RunWindow calls, so a Stop issued
// between windows — or from a callback that fires in a later window — must
// survive across run calls instead of being silently cleared by the next
// one (the historical behavior, which lost exactly those stops).
func (s *Scheduler) Stop() { s.stopped = true }

// Stopped reports whether the stop latch is set.
func (s *Scheduler) Stopped() bool { return s.stopped }

// Resume clears the stop latch so subsequent run calls execute events
// again. Pending events are untouched by Stop/Resume.
func (s *Scheduler) Resume() { s.stopped = false }

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

// RunWindow executes the half-open window [Now, end): every event with a
// timestamp strictly before end runs, and Now finishes at end so the next
// window picks up exactly where this one stopped. Events may still be
// scheduled at or after end once it returns (At accepts t ≥ Now). It
// returns the number of events executed; if the stop latch is set or end ≤
// Now, it returns 0 without executing anything. This is the parallel
// driver's synchronization quantum: each logical process runs one
// lookahead window, exchanges cross-process packets at the barrier, and
// repeats.
func (s *Scheduler) RunWindow(end Time) int {
	if s.stopped || end <= s.now {
		return 0
	}
	n := s.run(end-1, true)
	if !s.stopped && s.now < end {
		s.now = end
	}
	return n
}

func (s *Scheduler) run(deadline Time, advance bool) int {
	count := 0
	for !s.stopped {
		h := &s.near
		if len(s.near) == 0 || (len(s.far) > 0 && less(&s.far[0], &s.near[0])) {
			h = &s.far
		}
		if len(*h) == 0 {
			break
		}
		at, fn := (*h)[0].at, (*h)[0].fn
		if at > deadline {
			s.now = deadline
			return count
		}
		// Pop before invoking, so a nested At/After inside fn sees a
		// consistent heap.
		*h = pop(*h)
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
// strict total order and neither heap layout nor which heap an event sits
// in can ever change the execution order.
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
