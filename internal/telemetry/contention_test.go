package telemetry

import (
	"runtime"
	"sync"
	"testing"
)

// TestHotInstrumentsNeverBlock pins the telemetry layer's hot-path contract:
// the instruments a hot path may call never block. For each of the eight
// (Histogram.Observe/ObserveExemplar, Counter.Inc/Add, Gauge.Set/Add,
// SpanRing.Record/Event) in turn, four goroutines make 200 000 calls each
// with every contended mutex and every blocking event (channel operations,
// select, sync waits) profiled, and the test fails if a record's stack holds
// that instrument's method. An uncontended lock or an unfilled channel costs
// no allocation and changes no result, so no other test sees one;
// contention does show, and four callers on two CPUs make it certain. The
// calls come in rounds on fresh instruments, all four callers released at
// once, because a first call must not block either: an instrument that set
// itself up lazily would make the first decisions wait for it.
func TestHotInstrumentsNeverBlock(t *testing.T) {
	if runtime.NumCPU() < 2 {
		t.Skip("needs two CPUs, so that callers contend")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	defer runtime.SetMutexProfileFraction(runtime.SetMutexProfileFraction(1))
	runtime.SetBlockProfileRate(1)
	defer runtime.SetBlockProfileRate(0)

	const goroutines, rounds, calls = 4, 200, 1000
	var (
		h    *Histogram
		c    *Counter
		g    *Gauge
		ring *SpanRing
	)
	hot := []struct {
		fn   string
		call func(i int)
	}{
		{"repro/internal/telemetry.(*Histogram).Observe", func(i int) { h.Observe(uint64(i)) }},
		{"repro/internal/telemetry.(*Histogram).ObserveExemplar", func(i int) { h.ObserveExemplar(uint64(i), uint64(i)) }},
		{"repro/internal/telemetry.(*Counter).Inc", func(int) { c.Inc() }},
		{"repro/internal/telemetry.(*Counter).Add", func(int) { c.Add(1) }},
		{"repro/internal/telemetry.(*Gauge).Set", func(i int) { g.Set(int64(i)) }},
		{"repro/internal/telemetry.(*Gauge).Add", func(int) { g.Add(1) }},
		{"repro/internal/telemetry.(*SpanRing).Record", func(i int) { ring.Record(SpanDecide, uint64(i), 0, 1, 0) }},
		{"repro/internal/telemetry.(*SpanRing).Event", func(i int) { ring.Event(EventSwap, 0, int64(i), 0) }},
	}
	for _, inst := range hot {
		for range rounds {
			h, c, g, ring = new(Histogram), new(Counter), new(Gauge), NewSpanRing("contention", 64)
			start := make(chan struct{})
			var wg sync.WaitGroup
			for k := 0; k < goroutines; k++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					for i := 0; i < calls; i++ {
						inst.call(i)
					}
				}()
			}
			close(start)
			wg.Wait()
		}
	}

	for _, prof := range []struct {
		name string
		read func([]runtime.BlockProfileRecord) (int, bool)
	}{
		{"mutex", runtime.MutexProfile},
		{"block", runtime.BlockProfile},
	} {
		n, _ := prof.read(nil)
		recs := make([]runtime.BlockProfileRecord, n+64)
		n, ok := prof.read(recs)
		if !ok {
			t.Fatalf("%s profile grew past %d records while being read", prof.name, len(recs))
		}
		for _, rec := range recs[:n] {
			frames := runtime.CallersFrames(rec.Stack())
			for {
				f, more := frames.Next()
				for _, inst := range hot {
					if f.Function == inst.fn {
						t.Errorf("%s blocked (%s profile, %d events)", inst.fn, prof.name, rec.Count)
					}
				}
				if !more {
					break
				}
			}
		}
	}
}
