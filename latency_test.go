package thanos_test

import (
	"testing"

	"repro/internal/filter"
	"repro/internal/pipeline"
	"repro/internal/smbm"
)

// TestLatencyContract pins the hardware models' per-block latencies to the
// paper's table. The models tick their hw.Clock by these constants, so a
// drifted constant silently skews every cycle-accounted experiment.
func TestLatencyContract(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want int
		cite      string
	}{
		{"filter.UFPUCycles", filter.UFPUCycles, 2, `§5.2.1: "The processing latency is two clock cycles"`},
		{"filter.BFPUCycles", filter.BFPUCycles, 1, `§5.2.2: "The processing latency is exactly one clock cycle"`},
		{"filter.IOGenCycles", filter.IOGenCycles, 1, "Fig. 12: I/O generators are bit-vector logic, one cycle like a BFPU"},
		{"smbm.WriteCycles", smbm.WriteCycles, 2, `§5.1.3: "The latency of both write operations is two clock cycles"`},
		{"pipeline.CrossbarCycles", pipeline.CrossbarCycles, 1, "§5.3.2: a stage crossbar is registered once per stage"},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d (paper %s)", c.name, c.got, c.want, c.cite)
		}
	}
}
