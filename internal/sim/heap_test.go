package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// oracleEvent / oracleQueue replicate the seed implementation of the event
// queue (container/heap over boxed *event pointers, one heap) so the
// scheduler's timing wheel and far heap can be checked against it on
// randomized workloads.
type oracleEvent struct {
	at  Time
	pri uint64
	seq uint64
	id  int
}

type oracleQueue []*oracleEvent

func (q oracleQueue) Len() int { return len(q) }
func (q oracleQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	if q[i].pri != q[j].pri {
		return q[i].pri < q[j].pri
	}
	return q[i].seq < q[j].seq
}
func (q oracleQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *oracleQueue) Push(x any)   { *q = append(*q, x.(*oracleEvent)) }
func (q *oracleQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

// TestHeapMatchesOracle drives the scheduler and the old container/heap
// implementation through identical randomized interleavings of scheduling
// and draining, and requires the exact same execution order — including the
// FIFO tie-break for simultaneous events, which the workload provokes by
// drawing timestamps from a tiny range.
func TestHeapMatchesOracle(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		r := rand.New(rand.NewSource(int64(trial)))
		s := New(1)
		var oracle oracleQueue
		var oracleSeq uint64
		var got, want []int

		nextID := 0
		schedule := func(n int) {
			for i := 0; i < n; i++ {
				id := nextID
				nextID++
				d := Time(r.Intn(8)) // tiny range → many ties
				s.After(d, func() { got = append(got, id) })
				oracleSeq++
				heap.Push(&oracle, &oracleEvent{at: s.Now() + d, seq: oracleSeq, id: id})
			}
		}
		drainOracle := func(deadline Time) {
			for oracle.Len() > 0 && oracle[0].at <= deadline {
				e := heap.Pop(&oracle).(*oracleEvent)
				want = append(want, e.id)
			}
		}

		// Interleave bursts of scheduling with partial drains, so the heap
		// sees growth and shrinkage.
		for phase := 0; phase < 20; phase++ {
			schedule(1 + r.Intn(30))
			deadline := s.Now() + Time(r.Intn(6))
			s.RunUntil(deadline)
			drainOracle(deadline)
		}
		s.Run()
		drainOracle(MaxTime)

		if len(got) != len(want) {
			t.Fatalf("trial %d: executed %d events, oracle %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: order diverges at %d: got %v..., want %v...",
					trial, i, got[max(0, i-3):i+1], want[max(0, i-3):i+1])
			}
		}
	}
}

// TestRunUntilMatchesOracleDeadlines checks that RunUntil still executes
// exactly the events with timestamps ≤ deadline, advances Now to the
// deadline, and leaves later events queued — with events scheduled from
// within events.
func TestRunUntilMatchesOracleDeadlines(t *testing.T) {
	s := New(1)
	var fired []Time
	var chain func()
	chain = func() {
		fired = append(fired, s.Now())
		if s.Now() < 100 {
			s.After(10, chain)
		}
	}
	s.At(5, chain)
	if n := s.RunUntil(35); n != 4 { // 5, 15, 25, 35
		t.Fatalf("executed %d events, want 4", n)
	}
	if s.Now() != 35 {
		t.Fatalf("Now = %v, want 35", s.Now())
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1 (the t=45 link)", s.Pending())
	}
	s.Run()
	if last := fired[len(fired)-1]; last != 105 {
		t.Fatalf("chain ended at %v, want 105", last)
	}
	if s.Now() != 105 {
		t.Fatalf("Now = %v after Run, want 105 (time of last event)", s.Now())
	}
}

// straddle draws a delay from the classes the wheel/heap split has to get
// right: a few ns (many ties in one slot), anywhere on the ring (slots that
// wrap below now's), within a few ns of the span on either side, and many
// spans out (far heap).
func straddle(r *rand.Rand) Time {
	switch r.Intn(4) {
	case 0:
		return Time(r.Intn(8))
	case 1:
		return Time(r.Int63n(int64(horizon)))
	case 2:
		return horizon - 3 + Time(r.Intn(7))
	}
	return horizon + Time(r.Intn(4))*horizon + Time(r.Intn(8))
}

// checkWheel verifies the wheel's invariants against a walk of every slot:
// occupancy bits and summary match the lists, every event lies in
// [now, now+horizon) in its own slot, each list is in (pri, seq) order, and
// n counts the nodes.
func checkWheel(t *testing.T, s *Scheduler) {
	t.Helper()
	w := &s.wheel
	count := 0
	for slot := range w.head {
		occupied := w.head[slot] != 0
		if bit := w.bits[slot>>6]>>(slot&63)&1 == 1; bit != occupied {
			t.Fatalf("slot %d: occupancy bit %v, list non-empty %v", slot, bit, occupied)
		}
		var prev *event
		for i := w.head[slot]; i != 0; i = w.nodes[i].next {
			e := &w.nodes[i].event
			if e.at < s.now || e.at-s.now >= horizon || int(e.at&(horizon-1)) != slot {
				t.Fatalf("slot %d holds an event due at %v with now %v", slot, e.at, s.now)
			}
			if prev != nil && !less(prev, e) {
				t.Fatalf("slot %d out of order: (%v %d %d) before (%v %d %d)",
					slot, prev.at, prev.pri, prev.seq, e.at, e.pri, e.seq)
			}
			prev = e
			count++
		}
	}
	for i, word := range w.bits {
		if (w.summary>>i&1 == 1) != (word != 0) {
			t.Fatalf("summary bit %d disagrees with word %x", i, word)
		}
	}
	if count != w.n {
		t.Fatalf("wheel counts %d events, lists hold %d", w.n, count)
	}
}

// TestTwoHeapsMatchOracle is the order oracle for the wheel/far split. Every
// event, when it runs, must be the minimum of a single container/heap queue
// under (at, pri, seq); events schedule further events from inside their
// callbacks onto the wheel and into the far heap, priorities come from a
// tiny range so (at, pri) ties fall on both sides of the span, and run
// deadlines land anywhere, including between the wheel minimum and the far
// root.
func TestTwoHeapsMatchOracle(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		r := rand.New(rand.NewSource(int64(trial)))
		s := New(1)
		var oracle oracleQueue
		var oracleSeq uint64
		budget := 3000 // events a trial may schedule, so nesting terminates
		usedWheel, usedFar := false, false

		var schedule func()
		schedule = func() {
			if budget == 0 {
				return
			}
			budget--
			oracleSeq++
			e := &oracleEvent{at: s.Now() + straddle(r), pri: uint64(r.Intn(3)), seq: oracleSeq}
			heap.Push(&oracle, e)
			s.AtPri(e.at, e.pri, func() {
				if min := heap.Pop(&oracle).(*oracleEvent); min != e {
					t.Fatalf("trial %d: ran (at %v, pri %d, seq %d), oracle minimum is (at %v, pri %d, seq %d)",
						trial, e.at, e.pri, e.seq, min.at, min.pri, min.seq)
				}
				if s.Now() != e.at {
					t.Fatalf("trial %d: Now = %v inside an event due at %v", trial, s.Now(), e.at)
				}
				for k := r.Intn(3); k > 0; k-- {
					schedule()
				}
			})
		}
		check := func(deadline Time) {
			t.Helper()
			checkWheel(t, s)
			if s.Pending() != oracle.Len() || s.Pending() != s.wheel.n+len(s.far) {
				t.Fatalf("trial %d: Pending = %d (wheel %d + far %d), oracle holds %d",
					trial, s.Pending(), s.wheel.n, len(s.far), oracle.Len())
			}
			if oracle.Len() > 0 && oracle[0].at <= deadline {
				t.Fatalf("trial %d: run to %v left an event due at %v", trial, deadline, oracle[0].at)
			}
			usedWheel = usedWheel || s.wheel.n > 0
			usedFar = usedFar || len(s.far) > 0
		}

		for phase := 0; phase < 40; phase++ {
			for k := 1 + r.Intn(20); k > 0; k-- {
				schedule()
			}
			check(s.Now() - 1)
			deadline := s.Now() + straddle(r)/2
			s.RunUntil(deadline)
			if s.Now() != deadline {
				t.Fatalf("trial %d: Now = %v after a run to %v", trial, s.Now(), deadline)
			}
			check(deadline)
		}
		s.Run()
		check(MaxTime)
		if s.Pending() != 0 {
			t.Fatalf("trial %d: %d events left after Run", trial, s.Pending())
		}
		if !usedWheel || !usedFar {
			t.Fatalf("trial %d: workload did not exercise both queues (wheel %v, far %v)", trial, usedWheel, usedFar)
		}
	}
}

// TestTieAcrossHeaps pins the case the split must not get wrong: events with
// equal (at, pri) that sit in the far heap and on the wheel still run in
// scheduling order, and a lower pri in either runs first.
func TestTieAcrossHeaps(t *testing.T) {
	s := New(1)
	at := 2 * horizon
	var got []int
	s.AtPri(at, 5, func() { got = append(got, 1) }) // far
	s.AtPri(at, 7, func() { got = append(got, 3) }) // far
	s.RunUntil(at - 1)
	s.AtPri(at, 5, func() { got = append(got, 2) }) // wheel, same (at, pri) as 1
	s.AtPri(at, 9, func() { got = append(got, 4) }) // wheel, behind the far 3
	s.AtPri(at, 1, func() { got = append(got, 0) }) // wheel, ahead of the far 1
	if s.wheel.n != 3 || len(s.far) != 2 {
		t.Fatalf("wheel %d, far %d events; want 3 and 2", s.wheel.n, len(s.far))
	}
	s.Run()
	for i := range got {
		if len(got) != 5 || got[i] != i {
			t.Fatalf("order = %v, want [0 1 2 3 4]", got)
		}
	}
}

// TestDeadlineBetweenRoots runs to deadlines that fall between the wheel
// minimum and the far root, whichever of the two is the earlier one.
func TestDeadlineBetweenRoots(t *testing.T) {
	s := New(1)
	var got []Time
	note := func() { got = append(got, s.Now()) }
	s.At(5, note)           // wheel
	s.At(horizon+100, note) // far
	if n := s.RunUntil(50); n != 1 || s.Now() != 50 || s.Pending() != 1 {
		t.Fatalf("wheel minimum first: ran %d, Now %v, Pending %d", n, s.Now(), s.Pending())
	}
	s.RunUntil(horizon + 95)
	s.At(horizon+103, note) // wheel, and later than the far root
	if s.wheel.n != 1 || len(s.far) != 1 {
		t.Fatalf("wheel %d, far %d events; want 1 and 1", s.wheel.n, len(s.far))
	}
	if n := s.RunUntil(horizon + 102); n != 1 || s.Now() != horizon+102 || s.Pending() != 1 {
		t.Fatalf("far root first: ran %d, Now %v, Pending %d", n, s.Now(), s.Pending())
	}
	s.Run()
	if len(got) != 3 || got[0] != 5 || got[1] != horizon+100 || got[2] != horizon+103 {
		t.Fatalf("fired at %v", got)
	}
}

// TestWheelWrapAround puts Now near the end of the slot ring: events due in
// slots below Now's slot have wrapped and run after those above it, the
// last wheel slot (now+horizon−1) sits just below Now's own slot, and an
// event exactly one span out — which would share Now's slot — goes to the
// far heap.
func TestWheelWrapAround(t *testing.T) {
	s := New(1)
	s.RunUntil(3*horizon - 10)
	now := s.Now()
	var got []Time
	note := func() { got = append(got, s.Now()) }
	want := []Time{now, now + 5, now + 20, now + horizon - 1, now + horizon}
	for _, i := range []int{4, 3, 2, 1, 0} {
		s.At(want[i], note)
	}
	if s.wheel.n != 4 || len(s.far) != 1 {
		t.Fatalf("wheel %d, far %d events; want 4 and 1", s.wheel.n, len(s.far))
	}
	checkWheel(t, s)
	s.Run()
	for i := range want {
		if len(got) != len(want) || got[i] != want[i] {
			t.Fatalf("fired at %v, want %v", got, want)
		}
	}
}

// TestWheelSlotOrder fills one slot with interleaved priorities, including
// several (at, pri) ties: the slot's list runs in pri order, FIFO within a
// pri, whatever order the events arrived in.
func TestWheelSlotOrder(t *testing.T) {
	s := New(1)
	var got []int
	pris := []uint64{5, 1, 5, 3, 1, 5, 0, 3}
	for i, p := range pris {
		i := i
		s.AtPri(77, p, func() { got = append(got, i) })
	}
	want := []int{6, 1, 4, 3, 7, 0, 2, 5}
	s.Run()
	for i := range want {
		if len(got) != len(want) || got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

// TestRunUntilJumpsSpans advances Now by many spans while only the far heap
// holds events, then uses the wheel from the new Now: its slots are taken
// relative to wherever Now landed, not to a multiple of the span.
func TestRunUntilJumpsSpans(t *testing.T) {
	s := New(1)
	var got []Time
	note := func() { got = append(got, s.Now()) }
	s.At(10*horizon+3, note)
	s.At(37*horizon+1, note)
	if n := s.RunUntil(20*horizon + 7); n != 1 || s.wheel.n != 0 || s.Pending() != 1 {
		t.Fatalf("ran %d, wheel %d, Pending %d", n, s.wheel.n, s.Pending())
	}
	s.After(horizon-1, note) // wraps to the slot below Now's
	s.After(2, note)
	s.RunUntil(30*horizon + 11)
	s.Run()
	want := []Time{10*horizon + 3, 20*horizon + 9, 21*horizon + 6, 37*horizon + 1}
	for i := range want {
		if len(got) != len(want) || got[i] != want[i] {
			t.Fatalf("fired at %v, want %v", got, want)
		}
	}
}

// TestStopWithOnlyFarEvents latches Stop while the wheel is empty: the run
// loop must neither execute the far events nor advance the clock.
func TestStopWithOnlyFarEvents(t *testing.T) {
	s := New(1)
	count := 0
	s.At(1, func() { s.Stop() })
	s.At(3*horizon, func() { count++ })
	s.At(4*horizon, func() { count++ })
	if n := s.Run(); n != 1 || s.wheel.n != 0 || s.Pending() != 2 {
		t.Fatalf("ran %d events, wheel %d, Pending %d", n, s.wheel.n, s.Pending())
	}
	if n := s.RunUntil(5 * horizon); n != 0 || count != 0 || s.Now() != 1 || s.Pending() != 2 {
		t.Fatalf("stopped run executed %d events (count %d), Now %v, Pending %d", n, count, s.Now(), s.Pending())
	}
}

// TestMaxTime pins the exported constant to the seed's magic deadline so
// Run semantics are unchanged.
func TestMaxTime(t *testing.T) {
	if MaxTime != Time(1<<62-1) {
		t.Fatalf("MaxTime = %d, want 1<<62-1", int64(MaxTime))
	}
	s := New(1)
	var ran bool
	s.At(MaxTime, func() { ran = true })
	s.Run()
	if !ran {
		t.Fatal("event at MaxTime should run under Run")
	}
}

// TestSchedulerZeroAllocSteadyState asserts the zero-allocation contract of
// the event kernel: once the wheel's node pool and the far heap have warmed
// up, After/Run cycles allocate nothing — short delays, delays spread over
// the whole ring and delays past the span alike (the caller's closure is
// hoisted out of the loop, as the simulator's own hot paths do).
func TestSchedulerZeroAllocSteadyState(t *testing.T) {
	s := New(1)
	fn := func() {}
	// Warm the node pool and the far heap past their steady-state sizes.
	for i := 0; i < 1000; i++ {
		s.After(Time(i%50), fn)
		s.After(horizon+Time(i%50), fn)
	}
	s.Run()

	allocs := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 20; i++ {
			s.After(Time(i%7), fn)
			s.After(Time(i*397)%horizon, fn) // slots all round the ring
			s.After(horizon+Time(i%7), fn)
		}
		s.Run()
	})
	if allocs != 0 {
		t.Fatalf("steady-state After/Run allocates %.1f times per cycle, want 0", allocs)
	}

	// RunUntil windows (the experiment harness's draining pattern) must be
	// allocation-free too, including when they leave nodes on the wheel
	// across calls and the ring wraps under them.
	allocs = testing.AllocsPerRun(1000, func() {
		for i := 0; i < 20; i++ {
			s.After(Time(i%7), fn)
			s.After(Time(i*397)%horizon, fn)
			s.After(horizon+Time(i%7), fn)
		}
		s.RunUntil(s.Now() + 10)
		s.RunUntil(s.Now() + horizon/2)
		s.Run()
	})
	if allocs != 0 {
		t.Fatalf("steady-state RunUntil allocates %.1f times per cycle, want 0", allocs)
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
