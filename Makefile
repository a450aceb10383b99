GO ?= go
FUZZTIME ?= 30s

.PHONY: check check-slow check-perf

# check is the PR gate: build, vet, gofmt and race-enabled tests over the
# whole tree — the sharded decision engine, the serving frontend and the
# event kernel all carry concurrency-sensitive invariants — plus
# vet and tests of the benchmark module, which has its own go.mod (so the
# root ./... cannot see it) and compiles against the engine and server APIs.
# vet is also the lock-copy guard (copylocks) for the engine's shard mutex.
# gofmt fails the gate when it would reformat any file (it lists them).
# Each invariant has one mechanism, a test (DESIGN.md's invariant table
# names them): hot-path allocation freedom is the AllocsPerRun tests,
# instruments that never block TestHotInstrumentsNeverBlock, the engine's
# wmu → shard.mu order TestCheckSyncBesideWrites and
# TestEngineCloseDuringWrite, the wire contract the server and client
# suites. The race pass checks the engine's lock discipline itself,
# including the inline rebuild of a diverged replica beside decisions,
# writes and swaps, and covers the serving frontend too, with the short
# fault-injected soak (`go test -tags soak ./internal/server/` selects the
# long one), and netsim's link/switch faults with RTO recovery.
check:
	$(GO) build ./...
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l lists files to reformat:"; echo "$$unformatted"; exit 1; fi
	$(GO) test -race ./...
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# check-slow runs the gates too slow or too noisy for every edit, one
# command per line so a failure names its gate.
#
# Race depth: the suites that start goroutines, under the race detector at
# both ends of the scheduler spectrum. GOMAXPROCS=1 forces cooperative
# interleavings (goroutines only switch at yield points, so missing shutdown
# edges hang visibly) and GOMAXPROCS=4 maximizes true parallelism;
# schedule-dependent races show up at one setting or the other. Besides the
# engine and server suites that is the sweep runner's serial-vs-parallel
# identity tests and the simulator goldens: runner.Map runs independent
# simulation points on worker goroutines.
#
# Debug build: the suite with the thanosdebug tag. SMBM re-verifies
# per-dimension sortedness and the id<->metric pointer bijection below each
# dimension's stale watermark after every mutating op, without repairing,
# and the interpreter leases the tables Exec hands out (a stale read or a
# write-through panics).
#
# Fuzz smoke: each native fuzz target for FUZZTIME (30s default) from its
# checked-in seed corpus: the DSL parser round-trip, the step-major batch
# interpreter against one-at-a-time decisions, the bit-vector word-boundary
# model check, and the wire-protocol frame codec and server decode paths
# (truncated frames, oversized lengths, garbage opcodes must never panic,
# over-allocate, or wedge a connection).
#
# Strict overhead gates (THANOS_STRICT=1): the fully instrumented batched
# decision path must stay at zero steady-state allocations and within 5% of
# uninstrumented throughput; the traced wire path (trace trailer encode,
# exemplar store, span records) must stay allocation-free and full-rate
# tracing within 5% of untraced throughput, and a traced client must yield
# a stitched cross-layer timeline with a server exemplar.
check-slow:
	GOMAXPROCS=1 $(GO) test -race -count=1 ./internal/engine/ ./internal/server/...
	GOMAXPROCS=1 $(GO) test -race -count=1 -run 'SerialParallel|Golden' ./internal/experiments/
	GOMAXPROCS=4 $(GO) test -race -count=1 ./internal/engine/ ./internal/server/...
	GOMAXPROCS=4 $(GO) test -race -count=1 -run 'SerialParallel|Golden' ./internal/experiments/
	$(GO) test -tags thanosdebug ./...
	$(GO) test -run=^$$ -fuzz=^FuzzParse$$ -fuzztime=$(FUZZTIME) ./internal/policy/
	$(GO) test -run=^$$ -fuzz=^FuzzDecideBatch$$ -fuzztime=$(FUZZTIME) ./internal/policy/
	$(GO) test -run=^$$ -fuzz=^FuzzVectorOps$$ -fuzztime=$(FUZZTIME) ./internal/bitvec/
	$(GO) test -run=^$$ -fuzz=^FuzzFrameRoundTrip$$ -fuzztime=$(FUZZTIME) ./internal/server/
	$(GO) test -run=^$$ -fuzz=^FuzzServerDecode$$ -fuzztime=$(FUZZTIME) ./internal/server/
	THANOS_STRICT=1 $(GO) test -run '^TestTelemetryOverheadSmoke$$' -v ./internal/engine/
	THANOS_STRICT=1 $(GO) test -count=1 -v -run '^TestTrac' ./internal/server/

# check-perf is the performance-regression gate: it runs the pinned
# benchmark set (internal/perfcheck) and compares against the newest
# committed BENCH_<n>.json checkpoint. Hot-path benchmarks fail the gate at
# >10% calibration-normalized slowdown; kernel/table construction and
# wall-clock simulation benchmarks carry the wider bands declared in the
# set. Flagged benchmarks are re-measured up to three times before failing,
# so a co-tenant load burst on a shared runner does not fail the build. The
# fresh checkpoint lands in PERFCHECK_OUT for trajectory archiving. The
# served path's kernel (ServerRoundTrip, one closed-loop round trip through
# server and client) is measured by a second step, from the perfcheck test
# binary: linked into thanosbench, the serving stack moves the bit-vector
# kernels' code alignment and their timings with it. The step gates against
# the same checkpoint and adds its entry to PERFCHECK_OUT. Both steps run
# whatever the first one's verdict, so a red kernel step does not hide the
# served path's, and the target fails if either step failed.
PERFCHECK_OUT ?= bench_fresh.json
PERFCHECK_AGAINST = $$(ls BENCH_*.json | sort -t_ -k2 -n | tail -1)
check-perf:
	status=0; \
	$(GO) run ./cmd/thanosbench -checkpoint $(PERFCHECK_OUT) -against "$(PERFCHECK_AGAINST)" || status=1; \
	PERFCHECK_AGAINST="$(CURDIR)/$(PERFCHECK_AGAINST)" PERFCHECK_OUT="$(abspath $(PERFCHECK_OUT))" \
		$(GO) test -v -count=1 -run '^TestServerRoundTrip$$' ./internal/perfcheck/ || status=1; \
	exit $$status
