package server

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"runtime"
	"sync"
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
	done    atomic.Int64  // DecideBatch calls returned
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
	b.done.Add(1)
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

// ioCount counts the Read and Write calls the server makes on its side of a
// connection, and the largest single Write.
type ioCount struct {
	reads, writes, maxWrite atomic.Int64
}

// countConn is the server's end of a connection with its calls counted.
type countConn struct {
	net.Conn
	n *ioCount
}

func (c countConn) Read(b []byte) (int, error) {
	c.n.reads.Add(1)
	return c.Conn.Read(b)
}

func (c countConn) Write(b []byte) (int, error) {
	c.n.writes.Add(1)
	if n := int64(len(b)); n > c.n.maxWrite.Load() {
		c.n.maxWrite.Store(n) // one writer per connection
	}
	return c.Conn.Write(b)
}

// countListener hands the server counting connections; every connection it
// accepts counts into the same ioCount.
type countListener struct {
	net.Listener
	n *ioCount
}

func (l countListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countConn{nc, l.n}, nil
}

// dialCounted starts srv on a fresh Unix socket and dials it once. The
// returned FrameReader is the connection's one reader (a FrameReader reads
// ahead, so a second one on the same socket would lose frames); the ioCount
// sees the server's side of every connection on the socket.
func dialCounted(t *testing.T, srv *Server) (net.Conn, *FrameReader, *ioCount) {
	t.Helper()
	sock := t.TempDir() + "/bp.sock"
	l, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	n := &ioCount{}
	go srv.Serve(countListener{l, n})
	nc, err := net.Dial("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return nc, NewFrameReader(nc, MaxPayload), n
}

// dialTestServer is dialCounted without the counts.
func dialTestServer(t *testing.T, srv *Server) (net.Conn, *FrameReader) {
	t.Helper()
	nc, fr, _ := dialCounted(t, srv)
	return nc, fr
}

// redial opens one more connection to the server behind nc.
func redial(t *testing.T, nc net.Conn) (net.Conn, *FrameReader) {
	t.Helper()
	second, err := net.Dial("unix", nc.RemoteAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { second.Close() })
	return second, NewFrameReader(second, MaxPayload)
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

// hello round-trips one Hello through the connection's reader, proving the
// connection's goroutine is serving.
func hello(t *testing.T, nc net.Conn, fr *FrameReader) {
	t.Helper()
	if _, err := nc.Write(AppendHello(nil, 1, 0)); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if op, _, _, err := fr.Next(); err != nil || op != OpHelloAck {
		t.Fatalf("hello: op=%#x err=%v", op, err)
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
	first, fr := dialTestServer(t, srv)
	hello(t, first, fr)
	for i := 1; i < n; i++ {
		nc, fr := redial(t, first)
		hello(t, nc, fr)
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

// hellos appends n Hello frames, seq from..from+n-1. A HelloAck (12 B body)
// is larger than its Hello (4 B), so a Hello burst grows the coalesced reply
// buffer faster than the read buffer drains.
func hellos(buf []byte, from, n uint32) []byte {
	for seq := from; seq < from+n; seq++ {
		buf = AppendHello(buf, seq, 0)
	}
	return buf
}

// TestPipelinedBurstAnsweredInOrder: a burst far deeper than any client
// window, written while the connection is parked inside a request, waits in
// the socket buffer — nothing is rejected, the connection never has more than
// one request in the server, every frame is answered once, in order, and the
// replies are coalesced: a burst of 256 costs a handful of writes, not 256.
func TestPipelinedBurstAnsweredInOrder(t *testing.T) {
	be := newBlockBackend()
	reg := telemetry.NewRegistry()
	srv, err := New(Config{Backend: be, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	nc, fr, cnt := dialCounted(t, srv)

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
	// The whole burst was in the socket before the first reply was due, so
	// the server drained it in a few reads and answered each with one write.
	if w, r := cnt.writes.Load(), cnt.reads.Load(); w > n/8 || r > n/8 {
		t.Fatalf("%d writes and %d reads for a burst of %d frames, want at most %d of each", w, r, n, n/8)
	}
	// The burst is fully answered: a hello is the next reply, not a stray frame.
	hello(t, nc, fr)
	if got := srv.m.inflight.Value(); got != 0 {
		t.Fatalf("inflight = %d after the burst drained, want 0", got)
	}
}

// TestOneFrameAtATimeOneWritePerReply: a peer that waits for each reply
// before it sends the next request gets every reply in its own write, at
// once — coalescing never delays a reply nothing else is queued behind.
func TestOneFrameAtATimeOneWritePerReply(t *testing.T) {
	be := newBlockBackend()
	close(be.gate)
	srv, err := New(Config{Backend: be})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	nc, fr, cnt := dialCounted(t, srv)
	const n = 16
	for i := 0; i < n; i++ {
		hello(t, nc, fr)
	}
	if got := cnt.writes.Load(); got != n {
		t.Fatalf("%d writes for %d one-at-a-time requests, want %d", got, n, n)
	}
	// One read per frame, plus at most one more that found the socket empty
	// mid-frame; the parent's reader took three per frame.
	if got := cnt.reads.Load(); got > n+2 {
		t.Fatalf("%d reads for %d one-at-a-time requests, want about %d", got, n, n)
	}
}

// TestNoReplyHeldAcrossBlockingRead: a peer sends one and a half frames and
// waits. The first frame's reply must arrive before the peer sends the rest:
// with half a frame buffered the next Read would block, so the server writes
// what it has answered first.
func TestNoReplyHeldAcrossBlockingRead(t *testing.T) {
	be := newBlockBackend()
	close(be.gate)
	srv, err := New(Config{Backend: be})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	nc, fr := dialTestServer(t, srv)

	two := burst(2)
	cut := len(two) * 3 / 4 // all of frame 1, half of frame 2
	if _, err := nc.Write(two[:cut]); err != nil {
		t.Fatal(err)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if op, seq, _, err := fr.Next(); err != nil || op != OpDecided || seq != 1 {
		t.Fatalf("reply to the whole frame: op=%#x seq=%d err=%v, want Decided seq=1 before the rest is sent", op, seq, err)
	}
	if _, err := nc.Write(two[cut:]); err != nil {
		t.Fatal(err)
	}
	if op, seq, _, err := fr.Next(); err != nil || op != OpDecided || seq != 2 {
		t.Fatalf("reply to the completed frame: op=%#x seq=%d err=%v, want Decided seq=2", op, seq, err)
	}
}

// scriptConn is a net.Conn whose peer is a script: Read hands out a fixed
// byte stream as fast as it is asked for, Write records what the server
// sends. It makes the shape of the server's reads and writes deterministic.
type scriptConn struct {
	net.Conn // nil: only the methods below are called
	in       *bytes.Reader
	mu       sync.Mutex
	out      bytes.Buffer
	writes   []int
}

func (c *scriptConn) Read(b []byte) (int, error) { return c.in.Read(b) }
func (c *scriptConn) Write(b []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.writes = append(c.writes, len(b))
	return c.out.Write(b)
}
func (c *scriptConn) Close() error                     { return nil }
func (c *scriptConn) SetWriteDeadline(time.Time) error { return nil }

// TestReplyBufferCap: when the read buffer holds more requests than outCap
// holds replies — a large frame grew it, then a burst of Hellos, whose
// HelloAcks are larger than they are — the coalesced replies are written each time they
// pass outCap instead of growing with the burst. Every reply still arrives
// once, in order.
func TestReplyBufferCap(t *testing.T) {
	be := newBlockBackend()
	close(be.gate)
	srv, err := New(Config{Backend: be, Telemetry: telemetry.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const n = 20000
	big := AppendDecide(nil, 1, make([]uint64, MaxBatch), make([]uint16, MaxBatch))
	ack := len(AppendHelloAck(nil, 0, srv.helloInfo()))
	if n*ack < 4*outCap || len(big) < outCap/2 {
		t.Fatalf("script too small to pass outCap: %d hello acks of %d B, %d B frame", n, ack, len(big))
	}
	sc := &scriptConn{in: bytes.NewReader(hellos(big, 2, n))}
	srv.admit(sc)
	for deadline := time.Now().Add(10 * time.Second); srv.m.connsOpen.Value() != 0; {
		if time.Now().After(deadline) {
			t.Fatal("connection still open 10 s after its script ended in EOF")
		}
		time.Sleep(time.Millisecond)
	}
	srv.Close() // joins the connection's goroutine: its writes are all recorded

	bigReply := 4 + headerLen + 2 + 4*MaxBatch
	over := 0
	for i, w := range sc.writes {
		if w > outCap+bigReply {
			t.Fatalf("write %d is %d B, over outCap %d + one reply %d", i, w, outCap, bigReply)
		}
		if w >= outCap {
			over++
		}
	}
	if over == 0 {
		t.Fatalf("no write reached outCap (%d): writes %v", outCap, sc.writes)
	}
	fr := NewFrameReader(&sc.out, MaxPayload)
	for want := uint32(1); want <= n+1; want++ {
		op, seq, _, err := fr.Next()
		wantOp := byte(OpHelloAck)
		if want == 1 {
			wantOp = OpDecided
		}
		if err != nil || op != wantOp || seq != want {
			t.Fatalf("reply %d: op=%#x seq=%d err=%v", want, op, seq, err)
		}
	}
	if _, _, _, err := fr.Next(); err != io.EOF {
		t.Fatalf("after the last reply: %v, want io.EOF", err)
	}
}

// readInOrder reads replies of one opcode with consecutive seq numbers from
// next until the connection fails, and returns the last seq read and the
// error that ended it.
func readInOrder(t *testing.T, fr *FrameReader, wantOp byte, next uint32) (uint32, error) {
	t.Helper()
	for {
		op, seq, _, err := fr.Next()
		if err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				t.Fatalf("connection still open after Close: %v", err)
			}
			return next - 1, err // EOF, or a reset because the server closed with requests unread
		}
		if op != wantOp || seq != next {
			t.Fatalf("reply op=%#x seq=%d, want op=%#x seq=%d", op, seq, wantOp, next)
		}
		next++
	}
}

// TestCloseWaitsForExecutingRequest: Server.Close does not return while a
// request is still executing, and that request's reply goes out before the
// connection closes its socket.
func TestCloseWaitsForExecutingRequest(t *testing.T) {
	be := newBlockBackend()
	be.delay = 20 * time.Millisecond
	srv, err := New(Config{Backend: be})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	nc, fr := dialTestServer(t, srv)
	if _, err := nc.Write(burst(1)); err != nil {
		t.Fatal(err)
	}
	<-be.started
	close(be.gate) // the request now finishes be.delay from here
	srv.Close()
	if got := be.done.Load(); got != 1 {
		t.Fatalf("Close returned with the request still executing (%d of 1 DecideBatch calls returned)", got)
	}
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if k, _ := readInOrder(t, fr, OpDecided, 1); k != 1 {
		t.Fatalf("read %d replies after Close, want the executing request's one", k)
	}
}

// TestCloseMidBurst: Server.Close while a pipelined burst is being served.
// The peer sees replies 1..k in order and then a dead connection; the request
// executing when Close landed may have been decided without its reply
// getting out, and nothing is answered twice. The replies coalesced when
// Close lands are written before the socket closes: to a peer that reads,
// every request that ran is answered.
func TestCloseMidBurst(t *testing.T) {
	t.Run("decide", func(t *testing.T) {
		be := newBlockBackend()
		be.delay = 200 * time.Microsecond
		close(be.gate)
		reg := telemetry.NewRegistry()
		srv, err := New(Config{Backend: be, Telemetry: reg})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		nc, fr := dialTestServer(t, srv)

		const n = 256
		if _, err := nc.Write(burst(n)); err != nil {
			t.Fatal(err)
		}
		for be.calls.Load() < 10 {
			time.Sleep(50 * time.Microsecond)
		}
		srv.Close() // returns once the connection's goroutine has exited

		nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		k, _ := readInOrder(t, fr, OpDecided, 1)
		if k < 9 || k >= n {
			t.Fatalf("read %d replies; Close was meant to land mid-burst (10 of %d decided)", k, n)
		}
		if got := srv.m.decisions.Value(); got != uint64(k) && got != uint64(k)+1 {
			t.Fatalf("decisions_total = %d after %d replies, want %d or %d", got, k, k, k+1)
		}
		if got := srv.m.inflight.Value(); got != 0 {
			t.Fatalf("inflight = %d after Close, want 0", got)
		}
	})
	// Hellos answer with frames larger than the request and do not block in
	// the backend:
	// the peer keeps bursts coming while it reads, Close lands somewhere in
	// the stream with replies coalesced and requests buffered, and the peer
	// has read one gapless sequence that ends at the last frame the server
	// took.
	t.Run("hello", func(t *testing.T) {
		be := newBlockBackend()
		reg := telemetry.NewRegistry()
		srv, err := New(Config{Backend: be, Telemetry: reg})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		nc, fr := dialTestServer(t, srv)
		go func() {
			nc.SetWriteDeadline(time.Now().Add(10 * time.Second))
			for from := uint32(1); ; from += 64 {
				if _, err := nc.Write(hellos(nil, from, 64)); err != nil {
					return
				}
			}
		}()
		nc.SetReadDeadline(time.Now().Add(10 * time.Second))
		for want := uint32(1); want <= 1000; want++ {
			if op, seq, _, err := fr.Next(); err != nil || op != OpHelloAck || seq != want {
				t.Fatalf("reply op=%#x seq=%d err=%v, want HelloAck seq=%d", op, seq, err, want)
			}
		}
		closed := make(chan struct{})
		go func() { srv.Close(); close(closed) }() // the peer keeps reading: Close's flush must not wait on it
		k, _ := readInOrder(t, fr, OpHelloAck, 1001)
		<-closed
		if got := srv.m.framesTotal.Value(); got != uint64(k) {
			t.Fatalf("frames_total = %d with %d replies read, want them equal", got, k)
		}
		if got := srv.m.writeTimeouts.Value(); got != 0 {
			t.Fatalf("%d write timeouts; Close was meant to flush to a reading peer", got)
		}
	})
}

// TestStalledPeerWriteTimeout: a peer that pipelines requests and never
// reads a reply fills the socket buffers and blocks the connection's
// goroutine in a write. The write deadline closes the connection, counts it,
// records a flight event and frees the MaxConns slot and the goroutine; until
// then no write is larger than outCap plus one reply, whether the stream is
// large Decides or (after one large frame has grown the read buffer) Hellos,
// whose replies outgrow the requests.
func TestStalledPeerWriteTimeout(t *testing.T) {
	keys, outs := make([]uint64, MaxBatch), make([]uint16, MaxBatch)
	decide := AppendDecide(nil, 1, keys, outs)
	t.Run("decide", func(t *testing.T) { stalledPeer(t, decide, decide) })
	t.Run("hello", func(t *testing.T) { stalledPeer(t, decide, hellos(nil, 2, 4096)) })
}

// stalledPeer writes first once and then chunk forever, never reading.
func stalledPeer(t *testing.T, first, chunk []byte) {
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
	nc, _, cnt := dialCounted(t, srv)

	// Write until the server stops draining the socket (it is stuck writing
	// replies nobody reads) and then until it hangs up.
	wrote := make(chan struct{})
	go func() {
		defer close(wrote)
		nc.SetWriteDeadline(time.Now().Add(10 * time.Second))
		for frame := first; ; frame = chunk {
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
	if got, limit := cnt.maxWrite.Load(), int64(outCap+4+headerLen+2+4*MaxBatch); got > limit {
		t.Fatalf("largest write %d B, over outCap + one reply = %d", got, limit)
	}
	found := false
	for _, sp := range flight.Snapshot() {
		found = found || sp.Kind == telemetry.EventWriteTimeout
	}
	if !found {
		t.Fatal("no write_timeout event in the flight ring")
	}

	// The MaxConns=1 slot is free again: a second connection is served.
	second, fr := redial(t, nc)
	hello(t, second, fr)
	srv.Close()
	waitGoroutines(t, base, "after the stalled connection and Close")
}

// TestUnassignedOpcodeIsProtocolError: a frame whose opcode the protocol
// does not assign — the retired 0x09 and 0x0A among them — gets an Err frame
// echoing its seq, and the connection closes.
func TestUnassignedOpcodeIsProtocolError(t *testing.T) {
	be := newBlockBackend()
	close(be.gate)
	srv, err := New(Config{Backend: be})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	nc, fr := dialTestServer(t, srv)
	for i, op := range []byte{0x09, 0x0A, 0xEE} {
		if i > 0 {
			nc, fr = redial(t, nc)
		}
		if _, err := nc.Write(AppendFrame(nil, op, 5, nil)); err != nil {
			t.Fatal(err)
		}
		nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		got, seq, body, err := fr.Next()
		if err != nil || got != OpErr || seq != 5 || string(body) != "unknown opcode" {
			t.Fatalf("op %#x: reply op=%#x seq=%d body=%q err=%v, want Err seq 5", op, got, seq, body, err)
		}
		if _, _, _, err := fr.Next(); err == nil {
			t.Fatalf("op %#x: connection stayed open after the protocol error", op)
		}
	}
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
	first, fr := dialTestServer(t, srv)
	// Confirm the first connection is live before racing the second in.
	hello(t, first, fr)

	second, fr2 := redial(t, first)
	second.SetReadDeadline(time.Now().Add(5 * time.Second))
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

// pipeListener serves in-memory pipes. A write to a pipe blocks until the
// peer reads it, so a peer that does not read stalls the server's write
// deterministically, with no socket buffer to absorb it.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case nc := <-l.conns:
		return nc, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return &net.UnixAddr{Name: "pipe", Net: "pipe"} }

// dial hands the server one pipe and returns the peer's end. writing is
// closed when the server first writes to its end.
func (l *pipeListener) dial(writing chan struct{}) net.Conn {
	peer, end := net.Pipe()
	l.conns <- &writeSignalConn{Conn: end, writing: writing}
	return peer
}

type writeSignalConn struct {
	net.Conn
	once    sync.Once
	writing chan struct{}
}

func (c *writeSignalConn) Write(b []byte) (int, error) {
	c.once.Do(func() { close(c.writing) })
	return c.Conn.Write(b)
}

// TestUnreadRejectDoesNotStallServer: a peer over the connection limit that
// never reads its courtesy Err frame holds up only that write. The server's
// bookkeeping stays available meanwhile, and the frame is there when the
// peer does read.
func TestUnreadRejectDoesNotStallServer(t *testing.T) {
	srv, err := New(Config{Backend: newBlockBackend(), MaxConns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	l := newPipeListener()
	go srv.Serve(l)
	first := l.dial(make(chan struct{}))
	defer first.Close()
	hello(t, first, NewFrameReader(first, MaxPayload))

	writing := make(chan struct{})
	second := l.dial(writing)
	defer second.Close()
	select {
	case <-writing:
	case <-time.After(5 * time.Second):
		t.Fatal("the connection over the limit got no reject")
	}
	status := make(chan Status, 1)
	go func() { status <- srv.Introspect() }()
	select {
	case st := <-status:
		if st.Conns != 1 {
			t.Fatalf("Introspect: %d conns, want 1", st.Conns)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Introspect blocked behind an unread reject frame")
	}

	second.SetReadDeadline(time.Now().Add(5 * time.Second))
	op, _, body, err := NewFrameReader(second, MaxPayload).Next()
	if err != nil || op != OpErr || string(body) != "server full" {
		t.Fatalf("rejected peer read op=%#x body=%q err=%v, want Err \"server full\"", op, body, err)
	}
}

// TestUnreadReplyDoesNotStallServer: an admitted peer that never reads its
// reply holds up only its own connection's write. The server's bookkeeping
// stays available meanwhile, and the reply is there when the peer does read.
func TestUnreadReplyDoesNotStallServer(t *testing.T) {
	srv, err := New(Config{Backend: newBlockBackend()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	l := newPipeListener()
	go srv.Serve(l)
	writing := make(chan struct{})
	peer := l.dial(writing)
	defer peer.Close()
	if _, err := peer.Write(AppendHello(nil, 1, 0)); err != nil {
		t.Fatal(err)
	}
	select {
	case <-writing:
	case <-time.After(5 * time.Second):
		t.Fatal("the server never wrote the HelloAck")
	}
	status := make(chan Status, 1)
	go func() { status <- srv.Introspect() }()
	select {
	case st := <-status:
		if st.Conns != 1 {
			t.Fatalf("Introspect: %d conns, want 1", st.Conns)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Introspect blocked behind an unread reply")
	}

	peer.SetReadDeadline(time.Now().Add(5 * time.Second))
	if op, _, _, err := NewFrameReader(peer, MaxPayload).Next(); err != nil || op != OpHelloAck {
		t.Fatalf("peer read op=%#x err=%v, want HelloAck", op, err)
	}
}
