package sim

import (
	"testing"
)

func TestTimeString(t *testing.T) {
	cases := map[Time]string{
		5:               "5ns",
		3 * Microsecond: "3.000us",
		2 * Millisecond: "2.000ms",
		Second:          "1.000s",
	}
	for in, want := range cases {
		if got := in.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int64(in), got, want)
		}
	}
	if Second.Seconds() != 1.0 {
		t.Error("Seconds conversion wrong")
	}
}

func TestEventsRunInTimeOrder(t *testing.T) {
	s := New(1)
	var got []int
	s.At(30, func() { got = append(got, 3) })
	s.At(10, func() { got = append(got, 1) })
	s.At(20, func() { got = append(got, 2) })
	n := s.Run()
	if n != 3 {
		t.Fatalf("executed %d events", n)
	}
	for i, want := range []int{1, 2, 3} {
		if got[i] != want {
			t.Fatalf("order = %v", got)
		}
	}
	if s.Now() != 30 {
		t.Fatalf("Now = %v", s.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(100, func() { got = append(got, i) })
	}
	s.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("FIFO violated: %v", got)
		}
	}
}

func TestAfterAndNesting(t *testing.T) {
	s := New(1)
	var fired []Time
	s.After(10, func() {
		fired = append(fired, s.Now())
		s.After(5, func() { fired = append(fired, s.Now()) })
	})
	s.Run()
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 15 {
		t.Fatalf("fired = %v", fired)
	}
}

func TestPastSchedulingPanics(t *testing.T) {
	s := New(1)
	s.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past should panic")
			}
		}()
		s.At(5, func() {})
	})
	s.Run()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("negative After should panic")
			}
		}()
		s.After(-1, func() {})
	}()
}

func TestRunUntil(t *testing.T) {
	s := New(1)
	var count int
	for _, at := range []Time{10, 20, 30, 40} {
		s.At(at, func() { count++ })
	}
	n := s.RunUntil(25)
	if n != 2 || count != 2 {
		t.Fatalf("executed %d events, count %d", n, count)
	}
	if s.Now() != 25 {
		t.Fatalf("Now = %v, want 25", s.Now())
	}
	if s.Pending() != 2 {
		t.Fatalf("Pending = %d", s.Pending())
	}
	// Resume.
	n = s.Run()
	if n != 2 || count != 4 {
		t.Fatalf("resume executed %d, count %d", n, count)
	}
}

func TestRunUntilAdvancesOnEmptyQueue(t *testing.T) {
	s := New(1)
	s.RunUntil(1000)
	if s.Now() != 1000 {
		t.Fatalf("Now = %v, want 1000", s.Now())
	}
}

func TestStop(t *testing.T) {
	s := New(1)
	var count int
	s.At(10, func() { count++; s.Stop() })
	s.At(20, func() { count++ })
	s.Run()
	if count != 1 {
		t.Fatalf("count = %d, want 1 (stopped)", count)
	}
	if !s.Stopped() {
		t.Fatal("Stopped() = false after Stop")
	}
	// The latch is sticky: running again executes nothing and leaves the
	// event queued.
	if n := s.Run(); n != 0 || count != 1 || s.Pending() != 1 {
		t.Fatalf("stopped Run executed %d events, count %d, Pending %d", n, count, s.Pending())
	}
}

func TestStopBeforeRunIsNotLost(t *testing.T) {
	// Regression: run() used to clear the latch on entry, so a Stop issued
	// between runs was silently discarded and the next run executed events.
	s := New(1)
	var count int
	s.At(10, func() { count++ })
	s.Stop()
	if n := s.Run(); n != 0 || count != 0 {
		t.Fatalf("Run after Stop executed %d events, count %d", n, count)
	}
	if n := s.RunUntil(100); n != 0 {
		t.Fatalf("RunUntil after Stop executed %d events", n)
	}
	if s.Now() != 0 || s.Pending() != 1 {
		t.Fatalf("stopped run advanced Now to %v, Pending %d", s.Now(), s.Pending())
	}
}

func TestStopFromCallbackHoldsAcrossWindows(t *testing.T) {
	// Regression: a Stop fired by a callback inside one RunUntil slice must
	// still be latched when the next slice starts.
	s := New(1)
	var count int
	s.At(10, func() { count++; s.Stop() })
	s.At(30, func() { count++ })
	if n := s.RunUntil(19); n != 1 {
		t.Fatalf("slice 1 executed %d events", n)
	}
	if !s.Stopped() {
		t.Fatal("Stop from callback not latched")
	}
	if n := s.RunUntil(39); n != 0 || count != 1 {
		t.Fatalf("slice 2 executed %d events, count %d", n, count)
	}
}

func TestAtPriOrdersSimultaneousEvents(t *testing.T) {
	s := New(1)
	var got []int
	// Scheduled in descending-pri order to prove pri, not FIFO, decides.
	s.AtPri(100, 30, func() { got = append(got, 3) })
	s.AtPri(100, 20, func() { got = append(got, 2) })
	s.AtPri(100, 10, func() { got = append(got, 1) })
	// pri 0 (plain At) sorts before any keyed event at the same time.
	s.At(100, func() { got = append(got, 0) })
	// Time still dominates pri.
	s.AtPri(50, 99, func() { got = append(got, -1) })
	s.Run()
	for i, want := range []int{-1, 0, 1, 2, 3} {
		if got[i] != want {
			t.Fatalf("order = %v", got)
		}
	}
}

func TestAtPriEqualPriFallsBackToFIFO(t *testing.T) {
	s := New(1)
	var got []int
	for i := 0; i < 8; i++ {
		i := i
		s.AtPri(100, 7, func() { got = append(got, i) })
	}
	s.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("FIFO violated at equal (at, pri): %v", got)
		}
	}
}

func TestDeterministicRand(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Rand().Int63() != b.Rand().Int63() {
			t.Fatal("same seed should produce identical streams")
		}
	}
	c := New(43)
	same := true
	for i := 0; i < 10; i++ {
		if a.Rand().Int63() != c.Rand().Int63() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func BenchmarkSchedulerChurn(b *testing.B) {
	s := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.After(Time(i%100), func() {})
		if s.Pending() > 1000 {
			s.RunUntil(s.Now() + 50)
		}
	}
	s.Run()
}
