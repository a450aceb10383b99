package server

import (
	"errors"
	"net"
	"os"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/policy"
	"repro/internal/telemetry"
)

// blockBackend is a Backend whose DecideBatch parks until released, so tests
// can hold a connection's goroutine inside a request deterministically.
type blockBackend struct {
	gate    chan struct{} // DecideBatch blocks until this closes
	started chan struct{} // one token per DecideBatch entered, while there is room
	calls   atomic.Int64  // DecideBatch calls entered
	delay   time.Duration // service time per call once the gate is open
}

func newBlockBackend() *blockBackend {
	return &blockBackend{gate: make(chan struct{}), started: make(chan struct{}, 64)}
}

func (b *blockBackend) DecideBatch(pkts []engine.Packet) {
	b.calls.Add(1)
	select {
	case b.started <- struct{}{}:
	default:
	}
	<-b.gate
	time.Sleep(b.delay)
	for i := range pkts {
		pkts[i].ID, pkts[i].OK = 1, true
	}
}
func (b *blockBackend) Add(int, []int64) error          { return nil }
func (b *blockBackend) Update(int, []int64) error       { return nil }
func (b *blockBackend) Upsert(int, []int64) error       { return nil }
func (b *blockBackend) Delete(int) error                { return nil }
func (b *blockBackend) SwapPolicy(*policy.Policy) error { return nil }
func (b *blockBackend) Schema() policy.Schema           { return policy.Schema{Attrs: []string{"cpu"}} }
func (b *blockBackend) Capacity() int                   { return 8 }
func (b *blockBackend) Shards() int                     { return 1 }
func (b *blockBackend) Policy() *policy.Policy {
	return policy.MustParse("policy bp\nout best = min(table, cpu)\n")
}

// dialTestServer starts srv on a fresh Unix socket and dials it once.
func dialTestServer(t *testing.T, srv *Server) net.Conn {
	t.Helper()
	sock := t.TempDir() + "/bp.sock"
	l, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	nc, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return nc
}

// settledGoroutines returns the goroutine count once it has held still for a
// while, so goroutines of earlier tests that are still exiting (their Serve
// loops return asynchronously) do not leak into a baseline.
func settledGoroutines() int {
	n, still := runtime.NumGoroutine(), 0
	for still < 20 {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			still++
		} else {
			n, still = m, 0
		}
	}
	return n
}

// waitGoroutines polls until the goroutine count is want.
func waitGoroutines(t *testing.T, want int, what string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() != want {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, want %d", what, runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// ping round-trips one Ping, proving the connection's goroutine is serving.
func ping(t *testing.T, nc net.Conn) {
	t.Helper()
	if _, err := nc.Write(AppendPing(nil, 1)); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if op, _, _, err := NewFrameReader(nc, MaxPayload).Next(); err != nil || op != OpPong {
		t.Fatalf("ping: op=%#x err=%v", op, err)
	}
}

// TestServerOneGoroutinePerConn: a served connection costs exactly one
// goroutine, and Close returns all of them.
func TestServerOneGoroutinePerConn(t *testing.T) {
	base := settledGoroutines()
	be := newBlockBackend()
	close(be.gate)
	srv, err := New(Config{Backend: be})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	const n = 8
	first := dialTestServer(t, srv)
	ping(t, first)
	for i := 1; i < n; i++ {
		nc, err := net.Dial("unix", first.RemoteAddr().String())
		if err != nil {
			t.Fatal(err)
		}
		defer nc.Close()
		ping(t, nc)
	}
	// The accept loop plus one goroutine per connection.
	if got := runtime.NumGoroutine(); got != base+1+n {
		t.Fatalf("%d goroutines serving %d connections over a baseline of %d, want %d", got, n, base, base+1+n)
	}
	srv.Close()
	waitGoroutines(t, base, "after Close")
}

// burst returns n pipelined single-key Decide frames, seq 1..n.
func burst(n int) []byte {
	var buf []byte
	for seq := uint32(1); seq <= uint32(n); seq++ {
		buf = AppendDecide(buf, seq, []uint64{uint64(seq)}, []uint16{0})
	}
	return buf
}

// TestPipelinedBurstAnsweredInOrder: a burst far deeper than any client
// window, written while the connection is parked inside a request, waits in
// the socket buffer — nothing is rejected, the connection never has more than
// one request in the server, and every frame is answered once, in order.
func TestPipelinedBurstAnsweredInOrder(t *testing.T) {
	be := newBlockBackend()
	reg := telemetry.NewRegistry()
	srv, err := New(Config{Backend: be, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	nc := dialTestServer(t, srv)

	const n = 256 // eight client windows (client.DefaultMaxInflight is 32)
	if _, err := nc.Write(burst(n)); err != nil {
		t.Fatal(err)
	}
	<-be.started
	// Sample the gauge for as long as the burst is being served.
	var maxInflight atomic.Int64
	sampled, failed := make(chan struct{}), make(chan struct{})
	defer close(failed)
	go func() {
		defer close(sampled)
		for srv.m.decisions.Value() < n {
			select {
			case <-failed:
				return
			default:
			}
			if v := srv.m.inflight.Value(); v > maxInflight.Load() {
				maxInflight.Store(v)
			}
			runtime.Gosched()
		}
	}()
	if got := srv.m.inflight.Value(); got != 1 {
		t.Fatalf("inflight = %d with the connection parked behind %d frames, want 1", got, n)
	}
	close(be.gate)

	fr := NewFrameReader(nc, MaxPayload)
	nc.SetReadDeadline(time.Now().Add(10 * time.Second))
	for want := uint32(1); want <= n; want++ {
		op, seq, body, err := fr.Next()
		if err != nil {
			t.Fatalf("reply %d: %v", want, err)
		}
		if op != OpDecided || seq != want {
			t.Fatalf("reply op=%#x seq=%d, want Decided seq=%d", op, seq, want)
		}
		if ids, _, err := DecodeDecided(body, MaxBatch, nil); err != nil || len(ids) != 1 || ids[0] != 1 {
			t.Fatalf("decided %d: ids=%v err=%v", want, ids, err)
		}
	}
	<-sampled
	if got := maxInflight.Load(); got > 1 {
		t.Fatalf("inflight peaked at %d, want at most 1", got)
	}
	if got := be.calls.Load(); got != n {
		t.Fatalf("backend saw %d decides for %d frames", got, n)
	}
	// The burst is fully answered: a ping is the next reply, not a stray frame.
	ping(t, nc)
	if got := srv.m.inflight.Value(); got != 0 {
		t.Fatalf("inflight = %d after the burst drained, want 0", got)
	}
}

// TestCloseMidBurst: Server.Close while a pipelined burst is being served.
// The peer sees replies 1..k in order and then a dead connection; the request
// executing when Close landed may have been decided without its reply
// getting out, and nothing is answered twice.
func TestCloseMidBurst(t *testing.T) {
	be := newBlockBackend()
	be.delay = 200 * time.Microsecond
	close(be.gate)
	reg := telemetry.NewRegistry()
	srv, err := New(Config{Backend: be, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	nc := dialTestServer(t, srv)

	const n = 256
	if _, err := nc.Write(burst(n)); err != nil {
		t.Fatal(err)
	}
	for be.calls.Load() < 10 {
		time.Sleep(50 * time.Microsecond)
	}
	srv.Close() // returns once the connection's goroutine has exited

	fr := NewFrameReader(nc, MaxPayload)
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	k := uint32(0)
	for {
		op, seq, _, err := fr.Next()
		if err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("connection still open after Close: %v", err)
			}
			break // EOF, or a reset because the server closed with the burst unread
		}
		if op != OpDecided || seq != k+1 {
			t.Fatalf("reply op=%#x seq=%d after %d in-order replies", op, seq, k)
		}
		k++
	}
	if k < 9 || k >= n {
		t.Fatalf("read %d replies; Close was meant to land mid-burst (10 of %d decided)", k, n)
	}
	if got := srv.m.decisions.Value(); got != uint64(k) && got != uint64(k)+1 {
		t.Fatalf("decisions_total = %d after %d replies, want %d or %d", got, k, k, k+1)
	}
	if got := srv.m.inflight.Value(); got != 0 {
		t.Fatalf("inflight = %d after Close, want 0", got)
	}
}

// TestStalledPeerWriteTimeout: a peer that pipelines large decides and never
// reads a reply fills the socket buffers and blocks the connection's
// goroutine in a write. The write deadline closes the connection, counts it,
// records a flight event and frees the MaxConns slot and the goroutine.
func TestStalledPeerWriteTimeout(t *testing.T) {
	base := settledGoroutines()
	be := newBlockBackend()
	close(be.gate)
	reg := telemetry.NewRegistry()
	flight := telemetry.NewSpanRing("server", 64)
	srv, err := New(Config{Backend: be, MaxConns: 1, Telemetry: reg, Flight: flight})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.writeTimeout = 200 * time.Millisecond
	nc := dialTestServer(t, srv)

	// Write until the server stops draining the socket (it is stuck writing
	// replies nobody reads) and then until it hangs up.
	keys, outs := make([]uint64, MaxBatch), make([]uint16, MaxBatch)
	frame := AppendDecide(nil, 1, keys, outs)
	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		nc.SetWriteDeadline(time.Now().Add(10 * time.Second))
		for {
			if _, err := nc.Write(frame); err != nil {
				return
			}
		}
	}()
	stalled := time.Now()
	for srv.m.writeTimeouts.Value() == 0 {
		if time.Since(stalled) > 5*time.Second {
			t.Fatalf("no write timeout %v after the peer stalled (deadline %v)", time.Since(stalled), srv.writeTimeout)
		}
		time.Sleep(time.Millisecond)
	}
	<-wrote // the server hung up on the writer
	for srv.m.connsOpen.Value() != 0 {
		if time.Since(stalled) > 5*time.Second {
			t.Fatal("stalled connection still counted open after its write timed out")
		}
		time.Sleep(time.Millisecond)
	}
	if got := srv.m.writeTimeouts.Value(); got != 1 {
		t.Fatalf("write_timeouts_total = %d, want 1", got)
	}
	found := false
	for _, sp := range flight.Snapshot() {
		found = found || sp.Kind == telemetry.EventWriteTimeout
	}
	if !found {
		t.Fatal("no write_timeout event in the flight ring")
	}

	// The MaxConns=1 slot is free again: a second connection is served.
	second, err := net.Dial("unix", nc.RemoteAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	ping(t, second)
	srv.Close()
	waitGoroutines(t, base, "after the stalled connection and Close")
}

// TestAdmissionLimit: connections over MaxConns get a courtesy Err frame and
// a closed socket, and the rejected-connections counter moves.
func TestAdmissionLimit(t *testing.T) {
	be := newBlockBackend()
	reg := telemetry.NewRegistry()
	srv, err := New(Config{Backend: be, MaxConns: 1, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	first := dialTestServer(t, srv)
	// Confirm the first connection is live before racing the second in.
	if _, err := first.Write(AppendPing(nil, 1)); err != nil {
		t.Fatal(err)
	}
	fr := NewFrameReader(first, MaxPayload)
	first.SetReadDeadline(time.Now().Add(5 * time.Second))
	if op, _, _, err := fr.Next(); err != nil || op != OpPong {
		t.Fatalf("ping: op=%#x err=%v", op, err)
	}

	second, err := net.Dial("unix", first.RemoteAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	second.SetReadDeadline(time.Now().Add(5 * time.Second))
	fr2 := NewFrameReader(second, MaxPayload)
	op, _, body, err := fr2.Next()
	if err != nil || op != OpErr {
		t.Fatalf("second conn: op=%#x err=%v, want Err frame", op, err)
	}
	if string(body) != "server full" {
		t.Fatalf("second conn message %q", body)
	}
	if _, _, _, err := fr2.Next(); err == nil {
		t.Fatal("second conn stayed open past the admission limit")
	}
	if got := srv.m.connsRejected.Value(); got != 1 {
		t.Fatalf("conns_rejected_total = %d, want 1", got)
	}
	close(be.gate)
}
