GO ?= go
FUZZTIME ?= 30s

.PHONY: build test bench check check-debug check-obs check-perf check-race-depth experiments fuzz-smoke overhead-smoke metrics-demo load-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# check is the PR gate: build, static analysis, and race-enabled tests over
# the whole tree — the sharded decision engine, the serving frontend and the
# event kernel all carry concurrency-sensitive invariants — plus
# vet and tests of the benchmark module, which has its own go.mod (so the
# root ./... cannot see it) and compiles against the engine and server APIs.
# vet is also the lock-copy guard (copylocks) for the engine's shard mutex.
# thanoslint runs after vet and mechanically enforces the paper's hardware
# invariants: hot-path allocation freedom, simulation determinism, latency
# constants, and the telemetry layer's lock-free hot-safe API discipline —
# plus the call-graph analyzers (goroutineleak, lockorder, publishsafety,
# wireproto) over the serving stack's concurrency and protocol contracts —
# lockorder is what proves wmu → shard.mu is the engine's only order. The
# race pass checks the engine's lock discipline itself, and covers the
# serving frontend too, with the short fault-injected soak (`go test -tags
# soak ./internal/server/` selects the long one), and the failure-injection
# suite: the fault planner, engine shard quarantine/resync, netsim
# link/switch faults with RTO recovery, the Figure 17/18 failure sweeps and
# the lb control-plane retry path.
check: build
	$(GO) vet ./...
	$(GO) run ./cmd/thanoslint .
	$(GO) test -race ./...
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

# check-race-depth re-runs the suites that start goroutines under the race
# detector at both ends of the scheduler spectrum: GOMAXPROCS=1 forces
# cooperative interleavings (goroutines only switch at yield points, so
# missing shutdown edges hang visibly) and GOMAXPROCS=4 maximizes true
# parallelism. Schedule-dependent races show up at one setting or the other.
# Besides the engine and server suites that is the sweep runner's
# serial-vs-parallel identity tests and the simulator goldens: runner.Map
# runs independent simulation points on worker goroutines.
check-race-depth:
	GOMAXPROCS=1 $(GO) test -race -count=1 ./internal/engine/ ./internal/server/...
	GOMAXPROCS=1 $(GO) test -race -count=1 -run 'SerialParallel|Golden' ./internal/experiments/
	GOMAXPROCS=4 $(GO) test -race -count=1 ./internal/engine/ ./internal/server/...
	GOMAXPROCS=4 $(GO) test -race -count=1 -run 'SerialParallel|Golden' ./internal/experiments/

# check-debug re-runs the suite with the thanosdebug build tag: SMBM
# re-verifies per-dimension sortedness and the id<->metric pointer bijection
# after every mutating op, the interpreter leases the tables Exec hands out
# (a stale read or a write-through panics), and thanoslint analyzes the
# tagged file set.
check-debug:
	$(GO) run ./cmd/thanoslint -debug .
	$(GO) test -tags thanosdebug ./...

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
# the same checkpoint and adds its entry to PERFCHECK_OUT.
PERFCHECK_OUT ?= bench_fresh.json
PERFCHECK_AGAINST = $$(ls BENCH_*.json | sort -t_ -k2 -n | tail -1)
check-perf:
	$(GO) run ./cmd/thanosbench -checkpoint $(PERFCHECK_OUT) -against "$(PERFCHECK_AGAINST)"
	PERFCHECK_AGAINST="$(CURDIR)/$(PERFCHECK_AGAINST)" PERFCHECK_OUT="$(abspath $(PERFCHECK_OUT))" \
		$(GO) test -v -count=1 -run '^TestServerRoundTrip$$' ./internal/perfcheck/

# fuzz-smoke runs each native fuzz target for FUZZTIME (30s default) from
# its checked-in seed corpus: the DSL parser round-trip, the bit-vector
# word-boundary model check, and the wire-protocol frame codec and server
# decode paths (truncated frames, oversized lengths, garbage opcodes must
# never panic, over-allocate, or wedge a connection).
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=^FuzzParse$$ -fuzztime=$(FUZZTIME) ./internal/policy/
	$(GO) test -run=^$$ -fuzz=^FuzzVectorOps$$ -fuzztime=$(FUZZTIME) ./internal/bitvec/
	$(GO) test -run=^$$ -fuzz=^FuzzFrameRoundTrip$$ -fuzztime=$(FUZZTIME) ./internal/server/
	$(GO) test -run=^$$ -fuzz=^FuzzServerDecode$$ -fuzztime=$(FUZZTIME) ./internal/server/

# experiments regenerates the full paper-evaluation run (EXPERIMENTS.md's
# source data) into the ignored artifacts directory; the committed record is
# the prose in EXPERIMENTS.md, not the raw dump.
EXPERIMENTS_OUT ?= artifacts/experiments_output.txt
experiments:
	@mkdir -p $(dir $(EXPERIMENTS_OUT))
	$(GO) run ./cmd/thanosbench -exp all | tee $(EXPERIMENTS_OUT)

# load-smoke spawns an in-process thanosd and drives the synthetic
# million-flow load generator against it for a short window, writing the
# throughput/latency summary to LOADGEN_OUT for artifact archiving.
LOADGEN_OUT ?= load_fresh.json
load-smoke:
	$(GO) run ./cmd/thanosload -spawn -duration 5s -conns 1 -inflight 1 \
		-batch 256 -json $(LOADGEN_OUT)

# check-obs is the end-to-end observability gate. It runs the wire-tracing
# suite in strict mode — the traced decide path's extra work (trace trailer
# encode, exemplar store, span records) must stay at zero steady-state
# allocations, and full-rate tracing must stay within 5% of untraced
# throughput — then drives a sampled thanosload run that must surface a p99
# exemplar, and archives the stitched cross-layer Chrome trace it produced.
OBS_OUT ?= artifacts
check-obs:
	THANOS_CHECK_OBS=1 $(GO) test -count=1 -v -run '^TestTrac' ./internal/server/
	@mkdir -p $(OBS_OUT)
	$(GO) run ./cmd/thanosload -spawn -duration 3s -conns 2 -batch 64 \
		-trace-every 64 -json $(OBS_OUT)/load_traced.json \
		-trace-out $(OBS_OUT)/trace_stitched.json
	@grep -q '"p99_exemplar"' $(OBS_OUT)/load_traced.json || \
		{ echo "check-obs: no p99 exemplar in $(OBS_OUT)/load_traced.json"; exit 1; }

# overhead-smoke is the telemetry cost gate: the fully instrumented batched
# decision path must stay at zero steady-state allocations and within 5% of
# uninstrumented throughput.
overhead-smoke:
	THANOS_OVERHEAD_SMOKE=1 $(GO) test -run '^TestTelemetryOverheadSmoke$$' -v ./internal/engine/

# metrics-demo boots one netsim run with the telemetry endpoint, scrapes
# /metrics while the process holds, and prints the thanos_* samples.
METRICS_ADDR ?= 127.0.0.1:9090
metrics-demo: build
	@$(GO) build -o /tmp/thanos-netsim ./cmd/netsim
	@/tmp/thanos-netsim -flows 120 -scale 0.2 -metrics $(METRICS_ADDR) -hold 8s & \
	pid=$$!; \
	sleep 1; \
	for i in 1 2 3 4 5 6 7 8; do \
		if curl -sf http://$(METRICS_ADDR)/metrics >/dev/null 2>&1; then break; fi; \
		sleep 1; \
	done; \
	echo "--- scrape of http://$(METRICS_ADDR)/metrics ---"; \
	curl -sf http://$(METRICS_ADDR)/metrics | grep '^thanos_'; \
	status=$$?; \
	wait $$pid; \
	exit $$status
