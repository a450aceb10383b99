package client_test

import (
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/policy"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/telemetry"
)

// listen opens a Unix socket in the test's temp dir.
func listen(t *testing.T) (net.Listener, string) {
	t.Helper()
	sock := t.TempDir() + "/c.sock"
	l, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l, sock
}

// peer is the scripted server's end of one client connection: the wire codec
// and nothing else, so a test decides what is answered, when and in which
// order.
type peer struct {
	nc net.Conn
	fr *server.FrameReader
}

// accept takes the client's next connection.
func accept(t *testing.T, l net.Listener) *peer {
	t.Helper()
	l.(*net.UnixListener).SetDeadline(time.Now().Add(5 * time.Second))
	nc, err := l.Accept()
	if err != nil {
		t.Fatalf("accept: %v", err)
	}
	t.Cleanup(func() { nc.Close() })
	return &peer{nc, server.NewFrameReader(nc, server.MaxPayload)}
}

// hello answers the handshake client.Dial opens every first connection with.
func (p *peer) hello(t *testing.T) {
	t.Helper()
	p.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	op, seq, _, err := p.fr.Next()
	if err != nil || op != server.OpHello {
		t.Fatalf("handshake: op=%#x err=%v", op, err)
	}
	info := server.HelloInfo{Version: server.Version, Dims: 1, Capacity: 8, Shards: 1, Outputs: 1}
	if _, err := p.nc.Write(server.AppendHelloAck(nil, seq, info)); err != nil {
		t.Fatal(err)
	}
}

// decide is one Decide request as the scripted server read it.
type decide struct {
	seq  uint32
	keys []uint64
}

// nextDecide reads one Decide frame.
func (p *peer) nextDecide() (decide, error) {
	op, seq, body, err := p.fr.Next()
	if err != nil {
		return decide{}, err
	}
	if op != server.OpDecide {
		return decide{}, fmt.Errorf("op %#x, want Decide", op)
	}
	pkts, _, err := server.DecodeDecide(body, server.MaxBatch, nil)
	d := decide{seq: seq}
	for _, pk := range pkts {
		d.keys = append(d.keys, pk.Key)
	}
	return d, err
}

// appendEcho appends the reply that answers d with its own keys as ids, so a
// caller can tell its reply from anyone else's.
func appendEcho(dst []byte, d decide) []byte {
	pkts := make([]engine.Packet, len(d.keys))
	for i, k := range d.keys {
		pkts[i] = engine.Packet{ID: int(k), OK: true}
	}
	return server.AppendDecided(dst, d.seq, pkts)
}

// dialScripted runs client.Dial against the scripted listener, answering the
// handshake, and returns both ends.
func dialScripted(t *testing.T, l net.Listener, cfg client.Config) (*client.Client, *peer) {
	t.Helper()
	type dialed struct {
		c   *client.Client
		err error
	}
	ch := make(chan dialed, 1)
	go func() {
		c, _, err := client.Dial(cfg)
		ch <- dialed{c, err}
	}()
	p := accept(t, l)
	p.hello(t)
	d := <-ch
	if d.err != nil {
		t.Fatalf("dial: %v", d.err)
	}
	t.Cleanup(d.c.Close)
	return d.c, p
}

// TestWindowAndDemux: sixteen callers share a window of four. The scripted
// server never sees a fifth request while four are unanswered, answers each
// full window in one write and in reverse order — so the client's reader
// finds several replies in one read — and every caller still gets the reply
// to its own request.
func TestWindowAndDemux(t *testing.T) {
	const callers, rounds, window = 16, 4, 4
	l, sock := listen(t)
	c, p := dialScripted(t, l, client.Config{Network: "unix", Addr: sock, MaxInflight: window})

	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				keys := []uint64{uint64(g*1000 + r*10), uint64(g*1000 + r*10 + 1)}
				ids, err := c.Decide(keys, []uint16{0, 0}, nil)
				if err != nil {
					errs <- fmt.Errorf("caller %d round %d: %v", g, r, err)
					return
				}
				if len(ids) != 2 || ids[0] != int32(keys[0]) || ids[1] != int32(keys[1]) {
					errs <- fmt.Errorf("caller %d round %d: sent keys %v, got ids %v — someone else's reply", g, r, keys, ids)
					return
				}
			}
		}()
	}

	for answered := 0; answered < callers*rounds; answered += window {
		var held []decide
		p.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		for len(held) < window {
			d, err := p.nextDecide()
			if err != nil {
				t.Fatalf("request %d: %v", answered+len(held), err)
			}
			held = append(held, d)
		}
		// The window is full and at least one caller is waiting for a slot
		// (except in the last rounds): nothing more may arrive until a reply
		// frees one.
		p.nc.SetReadDeadline(time.Now().Add(5 * time.Millisecond))
		if d, err := p.nextDecide(); !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("request seq %d (err %v) arrived with %d unanswered: window of %d exceeded", d.seq, err, window, window)
		}
		var out []byte
		for i := len(held) - 1; i >= 0; i-- {
			out = appendEcho(out, held[i])
		}
		if _, err := p.nc.Write(out); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// echoBackend answers every key with itself as the id, and lets a test park
// the connection inside DecideBatch.
type echoBackend struct {
	entered chan struct{} // one token per DecideBatch, while there is room
	gate    chan struct{} // DecideBatch waits for this to close
}

func (b *echoBackend) DecideBatch(pkts []engine.Packet) {
	select {
	case b.entered <- struct{}{}:
	default:
	}
	<-b.gate
	for i := range pkts {
		pkts[i].ID, pkts[i].OK = int(pkts[i].Key), true
	}
}
func (b *echoBackend) Add(int, []int64) error          { return nil }
func (b *echoBackend) Update(int, []int64) error       { return nil }
func (b *echoBackend) Upsert(int, []int64) error       { return nil }
func (b *echoBackend) Delete(int) error                { return nil }
func (b *echoBackend) SwapPolicy(*policy.Policy) error { return nil }
func (b *echoBackend) Schema() policy.Schema           { return policy.Schema{Attrs: []string{"cpu"}} }
func (b *echoBackend) Capacity() int                   { return 8 }
func (b *echoBackend) Shards() int                     { return 1 }
func (b *echoBackend) Policy() *policy.Policy {
	return policy.MustParse("policy echo\nout best = min(table, cpu)\n")
}

// TestConcurrentCallersAgainstServer: the same property end to end against
// the real server. The first request parks the connection in the backend
// while the rest of the window piles up in the socket; once released the
// server drains them from one read and answers them in one write, and each
// of the sixteen callers gets its own ids back, round after round.
func TestConcurrentCallersAgainstServer(t *testing.T) {
	const callers, rounds, window = 16, 50, 8
	be := &echoBackend{entered: make(chan struct{}, 1), gate: make(chan struct{})}
	srv, err := server.New(server.Config{Backend: be})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	l, sock := listen(t)
	go srv.Serve(l)
	c, _, err := client.Dial(client.Config{Network: "unix", Addr: sock, MaxInflight: window})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			keys, outs := make([]uint64, 8), make([]uint16, 8)
			var ids []int32
			for r := 0; r < rounds; r++ {
				for i := range keys {
					keys[i] = uint64(g*100000 + r*100 + i)
				}
				var err error
				if ids, err = c.Decide(keys, outs, ids); err != nil {
					errs <- fmt.Errorf("caller %d round %d: %v", g, r, err)
					return
				}
				for i, id := range ids {
					if len(ids) != len(keys) || id != int32(keys[i]) {
						errs <- fmt.Errorf("caller %d round %d: sent keys %v, got ids %v", g, r, keys, ids)
						return
					}
				}
			}
		}()
	}
	<-be.entered
	time.Sleep(10 * time.Millisecond) // let the window fill behind the parked request
	close(be.gate)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestWrittenRequestNeverResent: the connection dies with a request written
// and unanswered. That call fails with ErrConnReset; the next call redials on
// its own and the new connection carries only the new request — the client
// never replays what it already wrote, because it cannot know whether it ran.
func TestWrittenRequestNeverResent(t *testing.T) {
	l, sock := listen(t)
	flight := telemetry.NewSpanRing("client", 16)
	c, p := dialScripted(t, l, client.Config{Network: "unix", Addr: sock, Flight: flight})

	lost := make(chan error, 1)
	go func() {
		_, err := c.Decide([]uint64{111}, []uint16{0}, nil)
		lost <- err
	}()
	p.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if d, err := p.nextDecide(); err != nil || len(d.keys) != 1 || d.keys[0] != 111 {
		t.Fatalf("first request: %+v err=%v", d, err)
	}
	p.nc.Close() // read, never answered
	if err := <-lost; !errors.Is(err, client.ErrConnReset) {
		t.Fatalf("call on the dead connection: %v, want ErrConnReset", err)
	}

	next := make(chan error, 1)
	go func() {
		ids, err := c.Decide([]uint64{222}, []uint16{0}, nil)
		if err == nil && (len(ids) != 1 || ids[0] != 222) {
			err = fmt.Errorf("ids %v, want [222]", ids)
		}
		next <- err
	}()
	p2 := accept(t, l) // the redial; no second handshake
	p2.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	d, err := p2.nextDecide()
	if err != nil || len(d.keys) != 1 || d.keys[0] != 222 {
		t.Fatalf("first frame on the new connection: %+v err=%v, want only the new request (key 222)", d, err)
	}
	if _, err := p2.nc.Write(appendEcho(nil, d)); err != nil {
		t.Fatal(err)
	}
	if err := <-next; err != nil {
		t.Fatalf("call after the reset: %v", err)
	}
	// Nothing else follows it.
	p2.nc.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
	if d, err := p2.nextDecide(); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("a second frame on the new connection: %+v err=%v", d, err)
	}
	reconnects := 0
	for _, sp := range flight.Snapshot() {
		if sp.Kind == telemetry.EventReconnect {
			reconnects++
		}
	}
	if reconnects != 1 {
		t.Fatalf("%d reconnect events in the flight ring, want 1", reconnects)
	}
}

// TestRedialFollowsBackoffSchedule: with the server gone, a call makes
// MaxDialAttempts redials spaced by the seed's fault.Backoff schedule and then
// reports the dial error; once the server is back the next call connects.
func TestRedialFollowsBackoffSchedule(t *testing.T) {
	l, sock := listen(t)
	cfg := client.Config{Network: "unix", Addr: sock, Seed: 7}
	c, p := dialScripted(t, l, cfg)

	// Take the server away under a request in flight: when that call comes
	// back reset, the client holds no connection and has not dialed yet.
	lost := make(chan error, 1)
	go func() {
		_, err := c.Hello()
		lost <- err
	}()
	p.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if op, _, _, err := p.fr.Next(); err != nil || op != server.OpHello {
		t.Fatalf("hello before the server goes: op=%#x err=%v", op, err)
	}
	l.Close()
	p.nc.Close()
	if err := <-lost; !errors.Is(err, client.ErrConnReset) {
		t.Fatalf("call in flight when the server went: %v, want ErrConnReset", err)
	}

	// The schedule the client must have slept through: the first
	// MaxDialAttempts delays of a fresh Backoff with its parameters.
	var schedule time.Duration
	bo := fault.NewBackoff(client.BackoffBase, client.BackoffMax, cfg.Seed)
	for i := 0; i < client.MaxDialAttempts; i++ {
		schedule += bo.Next()
	}
	start := time.Now()
	_, err := c.Hello()
	elapsed := time.Since(start)
	want := fmt.Sprintf("redial failed after %d attempts", client.MaxDialAttempts)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("hello with the server gone: %v, want %q", err, want)
	}
	if errors.Is(err, client.ErrConnReset) {
		t.Fatalf("redial failure reported as a reset: %v", err)
	}
	if elapsed < schedule || elapsed > schedule+2*time.Second {
		t.Fatalf("%d failed redials took %v, want the schedule's %v (and not seconds more)", client.MaxDialAttempts, elapsed, schedule)
	}

	// Back up: the next call dials, succeeds and resets the schedule.
	l2, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	back := make(chan error, 1)
	go func() {
		_, err := c.Hello()
		back <- err
	}()
	p2 := accept(t, l2)
	p2.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	op, seq, _, err := p2.fr.Next()
	if err != nil || op != server.OpHello {
		t.Fatalf("after the server came back: op=%#x err=%v, want Hello", op, err)
	}
	info := server.HelloInfo{Version: server.Version, Dims: 1, Capacity: 8, Shards: 1, Outputs: 1}
	if _, err := p2.nc.Write(server.AppendHelloAck(nil, seq, info)); err != nil {
		t.Fatal(err)
	}
	if err := <-back; err != nil {
		t.Fatalf("hello after the server came back: %v", err)
	}
}

// TestServerErrFrameReachesCaller: a server that answers a call with an Err
// frame fails that call with ErrRemote, and the error carries the server's
// message — for a Decide and for an Apply alike.
func TestServerErrFrameReachesCaller(t *testing.T) {
	l, sock := listen(t)
	c, p := dialScripted(t, l, client.Config{Network: "unix", Addr: sock})
	calls := []struct {
		name string
		op   byte
		call func() error
	}{
		{"decide", server.OpDecide, func() error {
			_, err := c.Decide([]uint64{1}, []uint16{0}, nil)
			return err
		}},
		{"apply", server.OpTable, func() error {
			_, err := c.Apply([]server.TableOp{{Kind: server.TableUpsert, ID: 3, Vals: []int64{7}}}, 1)
			return err
		}},
	}
	for _, tc := range calls {
		done := make(chan error, 1)
		go func() { done <- tc.call() }()
		p.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
		op, seq, _, err := p.fr.Next()
		if err != nil || op != tc.op {
			t.Fatalf("%s: op=%#x err=%v, want op %#x", tc.name, op, err, tc.op)
		}
		msg := "scripted refusal of the " + tc.name
		if _, err := p.nc.Write(server.AppendErr(nil, seq, msg)); err != nil {
			t.Fatal(err)
		}
		err = <-done
		if !errors.Is(err, client.ErrRemote) || !strings.Contains(err.Error(), msg) {
			t.Fatalf("%s answered with an Err frame: err = %v, want ErrRemote carrying %q", tc.name, err, msg)
		}
	}
}

// TestFullBatchesThroughServer: batches at the protocol's cap travel through
// the client and the real server intact, traced and untraced, and so does a
// frame at the payload cap. Both ends bound a batch by server.MaxBatch and a
// frame by server.MaxPayload, so the largest one either end accepts is one
// the other end accepts too.
func TestFullBatchesThroughServer(t *testing.T) {
	gate := make(chan struct{})
	close(gate)
	srv, err := server.New(server.Config{Backend: &echoBackend{gate: gate}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	l, sock := listen(t)
	go srv.Serve(l)
	// Every second Decide is traced, so each size goes out once with the
	// TraceFlag count bit and once without.
	c, _, err := client.Dial(client.Config{Network: "unix", Addr: sock, TraceEvery: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for _, n := range []int{server.MaxBatch - 1, server.MaxBatch} {
		keys, outs := make([]uint64, n), make([]uint16, n)
		for i := range keys {
			keys[i] = uint64(n + i)
		}
		for round := 0; round < 2; round++ {
			var ti client.TraceInfo
			ids, err := c.DecideTraced(keys, outs, nil, &ti)
			if err != nil {
				t.Fatalf("decide %d (traced %v): %v", n, ti.ID != 0, err)
			}
			if len(ids) != n {
				t.Fatalf("decide %d (traced %v): %d ids back", n, ti.ID != 0, len(ids))
			}
			for i, id := range ids {
				if id != int32(keys[i]) {
					t.Fatalf("decide %d (traced %v): ids[%d] = %d, want %d", n, ti.ID != 0, i, id, keys[i])
				}
			}
		}

		ops := make([]server.TableOp, n)
		for i := range ops {
			ops[i] = server.TableOp{Kind: server.TableUpsert, ID: uint32(i), Vals: []int64{int64(i)}}
		}
		statuses, err := c.Apply(ops, 1)
		if err != nil {
			t.Fatalf("apply %d ops: %v", n, err)
		}
		if len(statuses) != n {
			t.Fatalf("apply %d ops: %d statuses back", n, len(statuses))
		}
		for i, st := range statuses {
			if st != server.StatusOK {
				t.Fatalf("apply %d ops: status[%d] = %#x", n, i, st)
			}
		}
	}

	// A swap padded to the payload cap, which counts the frame's opcode byte
	// and seq word (5 bytes) beside the body.
	dsl := "policy echo\nout best = min(table, cpu)\n"
	dsl += strings.Repeat("\n", server.MaxPayload-5-len(dsl))
	if err := c.SwapPolicy(dsl); err != nil {
		t.Fatalf("swap of a %d-byte policy: %v", len(dsl), err)
	}
}

// TestStalledWriteDoesNotBlockReplies: while one caller's frame is stuck in
// a socket write the peer does not drain, a reply to another caller is
// still delivered. Writes hold only the dedicated write lock; the reader
// needs only the state lock.
func TestStalledWriteDoesNotBlockReplies(t *testing.T) {
	l, sock := listen(t)
	c, p := dialScripted(t, l, client.Config{Network: "unix", Addr: sock})

	answered := make(chan error, 1)
	go func() {
		ids, err := c.Decide([]uint64{7}, []uint16{0}, nil)
		if err == nil && (len(ids) != 1 || ids[0] != 7) {
			err = fmt.Errorf("ids %v, want [7]", ids)
		}
		answered <- err
	}()
	p.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	first, err := p.nextDecide()
	if err != nil {
		t.Fatal(err)
	}

	// The peer stops reading. Full batches fill the socket buffer until a
	// write blocks.
	const flood = 16
	var wg sync.WaitGroup
	keys, outs := make([]uint64, server.MaxBatch), make([]uint16, server.MaxBatch)
	for i := 0; i < flood; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Decide(keys, outs, nil) // fails with ErrConnReset once the peer hangs up
		}()
	}
	// On the way out the peer hangs up and, first, the listener goes, so
	// a caller that redials finds no server instead of a fresh socket to
	// stall on.
	defer wg.Wait()
	defer p.nc.Close()
	defer l.Close()
	waitStalledWrite(t)

	if _, err := p.nc.Write(appendEcho(nil, first)); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-answered:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("reply not delivered while another caller's write was stalled")
	}
}

// waitStalledWrite waits until some client call is blocked writing its
// frame to the socket.
func waitStalledWrite(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "client.(*Client).roundTripTrace(") && strings.Contains(g, "waitWrite") {
				return
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("no client write stalled on the undrained socket")
}
