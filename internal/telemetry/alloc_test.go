package telemetry

import "testing"

// The telemetry primitives are only admissible on the packet path if every
// hot-path operation is allocation-free in steady state; that they never
// block is TestHotInstrumentsNeverBlock's job.

func TestCounterZeroAlloc(t *testing.T) {
	var c Counter
	if n := testing.AllocsPerRun(100, func() {
		c.Inc()
		c.Add(3)
		_ = c.Value()
	}); n != 0 {
		t.Fatalf("counter ops allocate %v/run, want 0", n)
	}
}

func TestGaugeZeroAlloc(t *testing.T) {
	var g Gauge
	if n := testing.AllocsPerRun(100, func() {
		g.Set(4)
		g.Add(-1)
		_ = g.Value()
	}); n != 0 {
		t.Fatalf("gauge ops allocate %v/run, want 0", n)
	}
}

func TestHistogramObserveZeroAlloc(t *testing.T) {
	var h Histogram
	v := uint64(0)
	if n := testing.AllocsPerRun(100, func() {
		h.Observe(v)
		v += 97
	}); n != 0 {
		t.Fatalf("Observe allocates %v/run, want 0", n)
	}
}
