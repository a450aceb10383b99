package lint

// This file is the single source of truth for the paper's per-block latency
// table. Both the static side (the latencycontract analyzer, which verifies
// the declared constants in each hardware-model package) and the dynamic
// side (the thanosdebug assertions and cycle-accounting tests) trace back to
// these rows; changing a latency here without changing the hardware model —
// or vice versa — fails `make check`.

// DefaultContract is the paper's latency table as rendered by this
// repository's hardware-model packages.
var DefaultContract = []LatencyConst{
	// §5.2.1: "The processing latency is two clock cycles" (UFPU).
	{Pkg: "repro/internal/filter", Name: "UFPUCycles", Cycles: 2, Cite: "§5.2.1"},
	// §5.2.2: "The processing latency is exactly one clock cycle" (BFPU).
	{Pkg: "repro/internal/filter", Name: "BFPUCycles", Cycles: 1, Cite: "§5.2.2"},
	// Figure 12: I/O generators are bit-vector logic with BFPU-equivalent
	// one-cycle cost.
	{Pkg: "repro/internal/filter", Name: "IOGenCycles", Cycles: 1, Cite: "Fig. 12"},
	// §5.1.3: "The latency of both write operations is two clock cycles"
	// (SMBM add/delete).
	{Pkg: "repro/internal/smbm", Name: "WriteCycles", Cycles: 2, Cite: "§5.1.3"},
	// §5.3.2: stage crossbars are combinational but registered once per
	// stage in the hardware model.
	{Pkg: "repro/internal/pipeline", Name: "CrossbarCycles", Cycles: 1, Cite: "§5.3.2"},
}

// DefaultConfig returns the configuration that encodes this repository's
// real invariants; cmd/thanoslint runs with it.
func DefaultConfig() Config {
	return Config{
		DeterminismPkgs: []string{
			"repro/internal/sim",
			"repro/internal/engine",
			"repro/internal/experiments",
			"repro/internal/fault",
			"repro/internal/netsim",
			"repro/internal/netsim/topology",
			"repro/internal/smbm",
			"repro/internal/filter",
			"repro/internal/pipeline",
			"repro/internal/policy",
		},
		Contract: DefaultContract,
		Goroutine: GoroutineConfig{
			Pkgs: []string{"repro/internal/engine", "repro/internal/server"},
			// The teardown entry points whose drain paths prove shutdown
			// edges: Engine.Close (the engine's only goroutines are its
			// resync loops), Server.Close and conn.shutdown (closing the
			// socket is what ends a connection's one goroutine), and the
			// client's Close/teardown pair.
			Roots: []string{"Close", "shutdown", "teardown"},
		},
		Locks: LockConfig{
			Pkgs: []string{
				"repro/internal/engine",
				"repro/internal/server",
				"repro/internal/smbm",
			},
			IOPkgs:  []string{"net", "bufio", "io"},
			IOFuncs: []string{"Read", "Write", "Flush", "ReadFull", "ReadByte", "WriteByte", "Copy"},
		},
		// The steering table is the one value the engine still publishes by
		// atomic pointer: built whole by rebuildSteering, stored once, and
		// immutable afterwards. (A shard's snapshot is guarded by the shard
		// lock instead, which the race detector checks.)
		Publish: PublishConfig{
			Pkg:           "repro/internal/engine",
			Types:         []string{"steering"},
			AllowFuncs:    []string{"rebuildSteering"},
			PublishFields: []string{"steer"},
		},
		Wire: WireConfig{
			Pkg:        "repro/internal/server",
			ServerPkgs: []string{"repro/internal/server"},
			ClientPkg:  "repro/internal/server/client",
			Pairs: map[string]string{
				"OpHello":  "OpHelloAck",
				"OpDecide": "OpDecided",
				"OpTable":  "OpTableAck",
				"OpSwap":   "OpSwapAck",
				"OpPing":   "OpPong",
			},
			Universal: []string{"OpReject", "OpErr"},
			// OpPong left Bodyless in protocol v2: it now carries uptime +
			// build info, so DecodePong is required.
			Bodyless:  []string{"OpPing"},
			CapConsts: []string{"MaxPayload", "MaxBatch"},
			CapArgs: map[string]int{
				"NewFrameReader": 1,
				"DecodeDecide":   1,
				"DecodeDecided":  1,
				"DecodeTable":    2,
				"DecodeTableAck": 1,
			},
			// TraceFlag rides on the high bit of the Decide/Decided count
			// word; the analyzer proves it can never collide with a legal
			// count (> MaxBatch) and fits the u16 word.
			Flags:    []string{"TraceFlag"},
			CountCap: "MaxBatch",
		},
		Telemetry: TelemetryConfig{
			Pkg: "repro/internal/telemetry",
			// The hot-safe instrument API: single atomic read-modify-write
			// operations, audited lock-free and proven allocation-free by
			// the AllocsPerRun tests in internal/telemetry.
			HotSafe: []string{
				"(*Counter).Inc", "(*Counter).Add",
				"(*Gauge).Set", "(*Gauge).Add",
				"(*Histogram).Observe", "(*Histogram).ObserveExemplar",
				// Span recording is a slot claim + per-slot seqlock publish:
				// lock-free, allocation-free, audited by the AllocsPerRun
				// tests in internal/telemetry.
				"(*SpanRing).Record", "(*SpanRing).Event",
			},
		},
	}
}
