// End-to-end tracing: a traced client against a live server over UDS
// loopback must produce a complete cross-layer timeline — client enqueue /
// wire / reply spans, server decide / encode spans, histogram
// exemplars linking the latency tail back to a trace ID — stitched together
// by StitchTrace. The overhead smoke (env-gated, run by `make check-slow`)
// additionally bounds the traced path's cost against the untraced one.
package server_test

import (
	"net"
	"os"
	"runtime"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/policy"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/telemetry"
)

// traceHarness is one engine+server pair over a Unix socket with the full
// observability surface attached: a registry, a flight recorder with server
// and client component rings, and a traced client.
type traceHarness struct {
	eng    *engine.Engine
	srv    *server.Server
	reg    *telemetry.Registry
	fl     *telemetry.FlightRecorder
	client *telemetry.SpanRing
	sock   string
}

func newTraceHarness(t *testing.T, shards, capacity int) *traceHarness {
	t.Helper()
	h := &traceHarness{
		reg: telemetry.NewRegistry(),
		fl:  telemetry.NewFlightRecorder(),
	}
	h.client = h.fl.Ring("client", 256)
	eng, err := engine.New(engine.Config{
		Shards:   shards,
		Capacity: capacity,
		Schema:   diffSchema,
		Policy:   policy.MustParse(diffPolicies[0]),
		Flight:   h.fl.Ring("engine", 256),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(eng.Close)
	h.eng = eng
	srv, err := server.New(server.Config{
		Backend:   eng,
		Telemetry: h.reg,
		Flight:    h.fl.Ring("server", 256),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	h.srv = srv
	h.sock = t.TempDir() + "/trace.sock"
	l, err := net.Listen("unix", h.sock)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	return h
}

func (h *traceHarness) dial(t *testing.T, traceEvery int, seed int64) *client.Client {
	t.Helper()
	cli, _, err := client.Dial(client.Config{
		Network: "unix", Addr: h.sock,
		TraceEvery: traceEvery,
		Flight:     h.client,
		Seed:       seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cli.Close)
	return cli
}

func fillTable(t *testing.T, cli *client.Client, n int) {
	t.Helper()
	ops := make([]server.TableOp, 0, n)
	for i := 0; i < n; i++ {
		ops = append(ops, server.TableOp{Kind: server.TableUpsert, ID: uint32(i),
			Vals: []int64{int64(10 + i), int64(100 + i), int64(1000 + i)}})
	}
	sts, err := cli.Apply(ops, len(diffSchema.Attrs))
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range sts {
		if st != server.StatusOK {
			t.Fatalf("op %d: status %d", i, st)
		}
	}
}

// spanKinds collects the kinds present for one trace ID in one component.
func spanKinds(spans []telemetry.Span, traceID uint64) map[telemetry.SpanKind]telemetry.Span {
	out := make(map[telemetry.SpanKind]telemetry.Span)
	for _, s := range spans {
		if s.TraceID == traceID {
			out[s.Kind] = s
		}
	}
	return out
}

func TestTraceEndToEnd(t *testing.T) {
	h := newTraceHarness(t, 2, 64)
	cli := h.dial(t, 1, 42) // sample every call
	fillTable(t, cli, 32)

	keys := make([]uint64, 16)
	outs := make([]uint16, 16)
	for i := range keys {
		keys[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	var ti client.TraceInfo
	ids, err := cli.DecideTraced(keys, outs, nil, &ti)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != len(keys) {
		t.Fatalf("%d ids for %d keys", len(ids), len(keys))
	}
	if ti.ID == 0 {
		t.Fatal("TraceEvery=1 call was not sampled")
	}

	// Per-clock phase monotonicity. Client and server stamps come from the
	// same goroutine order within each process; cross-clock we only assert
	// the orderings a shared kernel clock (UDS loopback) guarantees: the
	// reply cannot be read before the server finished producing it.
	if ti.EnqueueNs > ti.SendNs || ti.SendNs > ti.ReplyNs {
		t.Fatalf("client stamps not monotonic: enqueue=%d send=%d reply=%d",
			ti.EnqueueNs, ti.SendNs, ti.ReplyNs)
	}
	tr := ti.Server
	if tr.ID != ti.ID {
		t.Fatalf("server echoed trace %#x, want %#x", tr.ID, ti.ID)
	}
	if tr.RecvNs > tr.AdmitNs || tr.AdmitNs > tr.StartNs || tr.StartNs > tr.DoneNs {
		t.Fatalf("server stamps not monotonic: recv=%d admit=%d start=%d done=%d",
			tr.RecvNs, tr.AdmitNs, tr.StartNs, tr.DoneNs)
	}
	if tr.DoneNs > ti.ReplyNs {
		t.Fatalf("reply (%d) observed before server done (%d)", ti.ReplyNs, tr.DoneNs)
	}
	if tr.RecvNs < ti.EnqueueNs {
		t.Fatalf("server recv (%d) before client enqueue (%d)", tr.RecvNs, ti.EnqueueNs)
	}

	// Both component rings must hold the call's spans under its trace ID.
	// The server records its spans after writing the reply, so the client
	// can observe the reply first — poll briefly for the server side.
	var comps map[string][]telemetry.Span
	var sk map[telemetry.SpanKind]telemetry.Span
	for deadline := time.Now().Add(2 * time.Second); ; {
		comps = h.fl.Snapshot()
		sk = spanKinds(comps["server"], ti.ID)
		if len(sk) >= 2 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	ck := spanKinds(comps["client"], ti.ID)
	for _, k := range []telemetry.SpanKind{telemetry.SpanEnqueue, telemetry.SpanWire, telemetry.SpanReply} {
		if _, ok := ck[k]; !ok {
			t.Errorf("client ring missing %v span for trace %#x", k, ti.ID)
		}
	}
	for _, k := range []telemetry.SpanKind{telemetry.SpanDecide, telemetry.SpanEncode} {
		if _, ok := sk[k]; !ok {
			t.Errorf("server ring missing %v span for trace %#x", k, ti.ID)
		}
	}
	if got := sk[telemetry.SpanDecide]; got.Start != tr.StartNs || got.End != tr.DoneNs {
		t.Errorf("server decide span [%d,%d] disagrees with echoed stamps [%d,%d]",
			got.Start, got.End, tr.StartNs, tr.DoneNs)
	}

	// StitchTrace reassembles the full cross-layer timeline by trace ID.
	stitched := telemetry.StitchTrace(comps, ti.ID)
	if len(stitched) < 5 {
		t.Fatalf("stitched trace has %d spans, want >= 5 (client 3 + server 2)", len(stitched))
	}

	// Exemplar linkage: the server latency histogram must retain a trace ID
	// in the bucket the traced call landed in.
	snap := h.reg.Snapshot()
	hs, ok := snap["thanos_server_decide_latency_us"].(telemetry.HistogramSnapshot)
	if !ok {
		t.Fatalf("latency histogram missing from registry snapshot: %T", snap["thanos_server_decide_latency_us"])
	}
	if len(hs.Exemplars) == 0 {
		t.Fatal("latency histogram has no exemplars after a traced call")
	}
	found := false
	for _, ex := range hs.Exemplars {
		if ex == ti.ID {
			found = true
		}
	}
	if !found {
		t.Errorf("no exemplar equals trace %#x: %v", ti.ID, hs.Exemplars)
	}

	// Introspection reflects the live server.
	st := h.srv.Introspect()
	if st.Version != server.Version || st.Build != runtime.Version() || st.Conns == 0 {
		t.Errorf("introspect: version=%d build=%q conns=%d", st.Version, st.Build, st.Conns)
	}
	est := h.eng.Introspect()
	if len(est.Shards) != 2 || est.Shards[1].TableVersion != est.Shards[0].TableVersion {
		t.Errorf("engine introspect: %+v, want 2 shards at one version", est)
	}
}

// TestTraceSampling checks the 1-in-N sampling contract: deterministic per
// (seed, call index), exactly one sampled call per TraceEvery window, and
// identical ID sequences for identical seeds.
func TestTraceSampling(t *testing.T) {
	h := newTraceHarness(t, 1, 16)
	fillTable(t, h.dial(t, 0, 0), 8)

	run := func(seed int64) []uint64 {
		cli := h.dial(t, 4, seed)
		keys, outs := []uint64{1, 2}, []uint16{0, 0}
		var got []uint64
		for i := 0; i < 16; i++ {
			var ti client.TraceInfo
			if _, err := cli.DecideTraced(keys, outs, nil, &ti); err != nil {
				t.Fatal(err)
			}
			got = append(got, ti.ID)
		}
		return got
	}
	a, b := run(7), run(7)
	sampled := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("call %d: seed-7 runs disagree: %#x vs %#x", i, a[i], b[i])
		}
		if a[i] != 0 {
			sampled++
		}
		if (a[i] != 0) != ((i+1)%4 == 0) {
			t.Fatalf("call %d: sampled=%v, want every 4th call", i, a[i] != 0)
		}
	}
	if sampled != 4 {
		t.Fatalf("sampled %d of 16 calls with TraceEvery=4", sampled)
	}
	c := run(8)
	same := 0
	for i := range a {
		if a[i] != 0 && a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical trace IDs")
	}
}

// TestTracedReplyEncodeAllocs pins the traced reply's extra server work —
// trailer encoding, exemplar store, span records — at zero allocations in
// steady state, mirroring what the Decide arm does per traced frame.
func TestTracedReplyEncodeAllocs(t *testing.T) {
	pkts := make([]engine.Packet, 64)
	ring := telemetry.NewSpanRing("server", 64)
	var hist telemetry.Histogram
	tr := server.DecideTrace{ID: 0xabcd, RecvNs: 1, AdmitNs: 2, StartNs: 3, DoneNs: 4}
	buf := make([]byte, 0, 4096)
	if n := testing.AllocsPerRun(100, func() {
		buf = server.AppendDecidedTrace(buf[:0], 9, pkts, tr)
		hist.ObserveExemplar(17, tr.ID)
		ring.Record(telemetry.SpanDecide, tr.ID, tr.StartNs, tr.DoneNs, 64)
		ring.Record(telemetry.SpanEncode, tr.ID, tr.DoneNs, tr.DoneNs+1, 0)
	}); n != 0 {
		t.Fatalf("traced reply path allocates %.1f per run, want 0", n)
	}
}

// TestTracingOverheadSmoke bounds full-rate tracing's cost: the same client
// workload with TraceEvery=1 must stay within 5% of the untraced rate. The
// strict bound only applies under THANOS_STRICT=1 (set by `make
// check-slow`); otherwise the test is a short functional smoke, because a 5%
// wall-clock bound on a loaded shared machine is not a stable assertion.
func TestTracingOverheadSmoke(t *testing.T) {
	strict := os.Getenv("THANOS_STRICT") == "1"
	if testing.Short() {
		t.Skip("overhead smoke skipped in -short mode")
	}
	h := newTraceHarness(t, 2, 256)
	fillTable(t, h.dial(t, 0, 0), 128)

	window := 150 * time.Millisecond
	if strict {
		window = time.Second
	}
	keys := make([]uint64, 32)
	outs := make([]uint16, 32)
	for i := range keys {
		keys[i] = uint64(i+1) * 0x9e3779b97f4a7c15
	}
	measure := func(traceEvery int, seed int64) float64 {
		cli := h.dial(t, traceEvery, seed)
		var ids []int32
		// Warm the connection's request recycling before timing.
		for i := 0; i < 64; i++ {
			var err error
			if ids, err = cli.Decide(keys, outs, ids); err != nil {
				t.Fatal(err)
			}
		}
		start := time.Now()
		var n int
		for time.Since(start) < window {
			var err error
			if ids, err = cli.Decide(keys, outs, ids); err != nil {
				t.Fatal(err)
			}
			n += len(ids)
		}
		return float64(n) / time.Since(start).Seconds()
	}

	// Paired rounds, best ratio wins: each round measures untraced and
	// traced back to back, and the bound applies to the round where tracing
	// looked cheapest. True overhead shows up in every round; co-tenant load
	// bursts hit individual rounds, so best-of-N strips the noise without
	// loosening the bound on the real cost.
	rounds := 1
	if strict {
		rounds = 5
	}
	best, bestOff, bestOn := 0.0, 0.0, 0.0
	for i := 0; i < rounds; i++ {
		off := measure(0, int64(100+i))
		on := measure(1, int64(200+i))
		if on == 0 {
			t.Fatal("no traced throughput")
		}
		if r := on / off; r > best {
			best, bestOff, bestOn = r, off, on
		}
	}
	t.Logf("best round: untraced %.0f dec/s, traced %.0f dec/s, overhead %.2f%%",
		bestOff, bestOn, (1/best-1)*100)
	if strict && best < 0.95 {
		t.Fatalf("tracing overhead exceeds 5%% in every round: best untraced %.0f dec/s, traced %.0f dec/s",
			bestOff, bestOn)
	}
}
