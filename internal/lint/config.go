package lint

// DefaultConfig returns the configuration that encodes this repository's
// real invariants; cmd/thanoslint runs with it.
func DefaultConfig() Config {
	return Config{
		Locks: LockConfig{
			Pkgs: []string{
				"repro/internal/engine",
				"repro/internal/server",
				"repro/internal/smbm",
			},
			IOPkgs:  []string{"net", "bufio", "io"},
			IOFuncs: []string{"Read", "Write", "Flush", "ReadFull", "ReadByte", "WriteByte", "Copy"},
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
			},
			Universal: []string{"OpReject", "OpErr"},
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
