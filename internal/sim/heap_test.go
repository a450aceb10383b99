package sim

import (
	"container/heap"
	"math/rand"
	"testing"
)

// oracleEvent / oracleQueue replicate the seed implementation of the event
// queue (container/heap over boxed *event pointers, one heap) so the
// scheduler's pair of in-place 4-ary heaps can be checked against it on
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

// straddle draws a delay from the three classes the two-heap split has to
// get right: a few ns (many ties, near heap), within a few ns of the horizon
// on either side, and far beyond it.
func straddle(r *rand.Rand) Time {
	switch r.Intn(3) {
	case 0:
		return Time(r.Intn(8))
	case 1:
		return horizon - 3 + Time(r.Intn(7))
	}
	return horizon + Time(r.Intn(4))*horizon + Time(r.Intn(8))
}

// TestTwoHeapsMatchOracle is the order oracle for the near/far split. Every
// event, when it runs, must be the minimum of a single container/heap queue
// under (at, pri, seq); events schedule further events from inside their
// callbacks into both heaps, priorities come from a tiny range so (at, pri)
// ties fall on both sides of the horizon, and run deadlines (RunUntil and
// RunWindow alike) land anywhere, including between the two roots.
func TestTwoHeapsMatchOracle(t *testing.T) {
	for trial := 0; trial < 50; trial++ {
		r := rand.New(rand.NewSource(int64(trial)))
		s := New(1)
		var oracle oracleQueue
		var oracleSeq uint64
		budget := 3000 // events a trial may schedule, so nesting terminates
		usedNear, usedFar := false, false

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
			if s.Pending() != oracle.Len() || s.Pending() != len(s.near)+len(s.far) {
				t.Fatalf("trial %d: Pending = %d (near %d + far %d), oracle holds %d",
					trial, s.Pending(), len(s.near), len(s.far), oracle.Len())
			}
			if oracle.Len() > 0 && oracle[0].at <= deadline {
				t.Fatalf("trial %d: run to %v left an event due at %v", trial, deadline, oracle[0].at)
			}
			usedNear = usedNear || len(s.near) > 0
			usedFar = usedFar || len(s.far) > 0
		}

		for phase := 0; phase < 40; phase++ {
			for k := 1 + r.Intn(20); k > 0; k-- {
				schedule()
			}
			check(s.Now() - 1)
			deadline := s.Now() + straddle(r)/2
			end := deadline
			if phase%2 == 0 {
				s.RunUntil(deadline)
			} else {
				end = deadline + 1 // RunWindow's end is exclusive, and where it leaves Now
				s.RunWindow(end)
			}
			if s.Now() != end {
				t.Fatalf("trial %d: Now = %v after a run to %v", trial, s.Now(), end)
			}
			check(deadline)
		}
		s.Run()
		check(MaxTime)
		if s.Pending() != 0 {
			t.Fatalf("trial %d: %d events left after Run", trial, s.Pending())
		}
		if !usedNear || !usedFar {
			t.Fatalf("trial %d: workload did not exercise both heaps (near %v, far %v)", trial, usedNear, usedFar)
		}
	}
}

// TestTieAcrossHeaps pins the case the split must not get wrong: events with
// equal (at, pri) that sit in different heaps still run in scheduling order,
// and a lower pri in either heap runs first.
func TestTieAcrossHeaps(t *testing.T) {
	s := New(1)
	at := 2 * horizon
	var got []int
	s.AtPri(at, 5, func() { got = append(got, 1) }) // far
	s.AtPri(at, 7, func() { got = append(got, 3) }) // far
	s.RunUntil(at - 1)
	s.AtPri(at, 5, func() { got = append(got, 2) }) // near, same (at, pri) as 1
	s.AtPri(at, 9, func() { got = append(got, 4) }) // near, behind the far 3
	s.AtPri(at, 1, func() { got = append(got, 0) }) // near, ahead of the far 1
	if len(s.near) != 3 || len(s.far) != 2 {
		t.Fatalf("near %d, far %d events; want 3 and 2", len(s.near), len(s.far))
	}
	s.Run()
	for i := range got {
		if len(got) != 5 || got[i] != i {
			t.Fatalf("order = %v, want [0 1 2 3 4]", got)
		}
	}
}

// TestDeadlineBetweenRoots runs to deadlines that fall between the near
// root and the far root, whichever of the two is the earlier one.
func TestDeadlineBetweenRoots(t *testing.T) {
	s := New(1)
	var got []Time
	note := func() { got = append(got, s.Now()) }
	s.At(5, note)           // near
	s.At(horizon+100, note) // far
	if n := s.RunUntil(50); n != 1 || s.Now() != 50 || s.Pending() != 1 {
		t.Fatalf("near root first: ran %d, Now %v, Pending %d", n, s.Now(), s.Pending())
	}
	s.RunUntil(horizon + 95)
	s.At(horizon+103, note) // near, and later than the far root
	if len(s.near) != 1 || len(s.far) != 1 {
		t.Fatalf("near %d, far %d events; want 1 and 1", len(s.near), len(s.far))
	}
	if n := s.RunWindow(horizon + 102); n != 1 || s.Now() != horizon+102 || s.Pending() != 1 {
		t.Fatalf("far root first: ran %d, Now %v, Pending %d", n, s.Now(), s.Pending())
	}
	s.Run()
	if len(got) != 3 || got[0] != 5 || got[1] != horizon+100 || got[2] != horizon+103 {
		t.Fatalf("fired at %v", got)
	}
}

// TestStopWithOnlyFarEvents latches Stop while the near heap is empty: the
// run loop must neither execute the far events nor advance the clock.
func TestStopWithOnlyFarEvents(t *testing.T) {
	s := New(1)
	count := 0
	s.At(1, func() { s.Stop() })
	s.At(3*horizon, func() { count++ })
	s.At(4*horizon, func() { count++ })
	if n := s.Run(); n != 1 || len(s.near) != 0 || s.Pending() != 2 {
		t.Fatalf("ran %d events, near %d, Pending %d", n, len(s.near), s.Pending())
	}
	if n := s.RunUntil(5 * horizon); n != 0 || count != 0 || s.Now() != 1 {
		t.Fatalf("stopped run executed %d events (count %d), Now %v", n, count, s.Now())
	}
	s.Resume()
	if n := s.Run(); n != 2 || count != 2 {
		t.Fatalf("after Resume ran %d events, count %d", n, count)
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
// the event kernel: once both heaps have warmed up, After/Run cycles
// allocate nothing — short delays and delays past the horizon alike (the
// caller's closure is hoisted out of the loop, as the simulator's own hot
// paths do).
func TestSchedulerZeroAllocSteadyState(t *testing.T) {
	s := New(1)
	fn := func() {}
	// Warm both heaps past their steady-state sizes.
	for i := 0; i < 1000; i++ {
		s.After(Time(i%50), fn)
		s.After(horizon+Time(i%50), fn)
	}
	s.Run()

	allocs := testing.AllocsPerRun(1000, func() {
		for i := 0; i < 20; i++ {
			s.After(Time(i%7), fn)
			s.After(horizon+Time(i%7), fn)
		}
		s.Run()
	})
	if allocs != 0 {
		t.Fatalf("steady-state After/Run allocates %.1f times per cycle, want 0", allocs)
	}

	// RunUntil windows (the experiment harness's draining pattern) must be
	// allocation-free too.
	allocs = testing.AllocsPerRun(1000, func() {
		for i := 0; i < 20; i++ {
			s.After(Time(i%7), fn)
			s.After(horizon+Time(i%7), fn)
		}
		s.RunUntil(s.Now() + 10)
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
