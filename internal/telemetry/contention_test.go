package telemetry

import (
	"runtime"
	"sync"
	"testing"
)

// TestHotInstrumentsTakeNoMutex pins what telemetrysafety's analyzer guards
// at run time: the instruments a hot path may call take no lock. Four
// goroutines make 200 000 calls each to one instrument at a time with every
// mutex contention event profiled, and the test fails if any contended
// mutex's stack holds that instrument's method. An uncontended lock costs no
// allocation and changes no result, so no other test sees one; contention
// does show, and four callers on two CPUs make it certain.
func TestHotInstrumentsTakeNoMutex(t *testing.T) {
	if runtime.NumCPU() < 2 {
		t.Skip("needs two CPUs, so that callers contend")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	defer runtime.SetMutexProfileFraction(runtime.SetMutexProfileFraction(1))

	const goroutines, calls = 4, 200_000
	var (
		h    Histogram
		c    Counter
		g    Gauge
		ring = NewSpanRing("contention", 64)
	)
	hot := []struct {
		fn   string
		call func(i int)
	}{
		{"repro/internal/telemetry.(*Histogram).Observe", func(i int) { h.Observe(uint64(i)) }},
		{"repro/internal/telemetry.(*Counter).Add", func(int) { c.Add(1) }},
		{"repro/internal/telemetry.(*Gauge).Set", func(i int) { g.Set(int64(i)) }},
		{"repro/internal/telemetry.(*SpanRing).Record", func(i int) { ring.Record(SpanDecide, uint64(i), 0, 1, 0) }},
	}
	for _, inst := range hot {
		var wg sync.WaitGroup
		for k := 0; k < goroutines; k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < calls; i++ {
					inst.call(i)
				}
			}()
		}
		wg.Wait()
	}

	n, _ := runtime.MutexProfile(nil)
	recs := make([]runtime.BlockProfileRecord, n+64)
	n, ok := runtime.MutexProfile(recs)
	if !ok {
		t.Fatalf("mutex profile grew past %d records while being read", len(recs))
	}
	for _, rec := range recs[:n] {
		frames := runtime.CallersFrames(rec.Stack())
		for {
			f, more := frames.Next()
			for _, inst := range hot {
				if f.Function == inst.fn {
					t.Errorf("%s waited on a contended mutex (%d events)", inst.fn, rec.Count)
				}
			}
			if !more {
				break
			}
		}
	}
}
