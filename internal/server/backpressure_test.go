package server

import (
	"net"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/policy"
	"repro/internal/telemetry"
)

// blockBackend is a Backend whose DecideBatch parks until released, so tests
// can hold a connection's worker busy and fill its ring deterministically.
type blockBackend struct {
	gate    chan struct{} // DecideBatch blocks until this closes
	started chan struct{} // one token per DecideBatch entered
}

func newBlockBackend() *blockBackend {
	return &blockBackend{gate: make(chan struct{}), started: make(chan struct{}, 64)}
}

func (b *blockBackend) DecideBatch(pkts []engine.Packet) {
	b.started <- struct{}{}
	<-b.gate
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

// TestBackpressureRejects: with Ring=2 and the worker parked, exactly two
// requests are admitted; every further request draws a deterministic Reject
// frame, the reject/inflight counters move, and after release every admitted
// request is answered — zero silent drops.
func TestBackpressureRejects(t *testing.T) {
	be := newBlockBackend()
	reg := telemetry.NewRegistry()
	srv, err := New(Config{Backend: be, Ring: 2, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	nc := dialTestServer(t, srv)

	// Frame 1 is admitted and picked up by the worker (parked in the
	// backend); wait for that pickup so the remaining admissions are
	// attributable purely to the free list.
	var buf []byte
	buf = AppendDecide(buf, 1, []uint64{1}, []uint16{0})
	if _, err := nc.Write(buf); err != nil {
		t.Fatal(err)
	}
	<-be.started

	// Frame 1 holds one of the two ring slots while parked. Frame 2 takes
	// the other; frames 3..5 must all bounce.
	buf = buf[:0]
	for seq := uint32(2); seq <= 5; seq++ {
		buf = AppendDecide(buf, seq, []uint64{uint64(seq)}, []uint16{0})
	}
	if _, err := nc.Write(buf); err != nil {
		t.Fatal(err)
	}

	fr := NewFrameReader(nc, MaxPayload)
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	rejected := map[uint32]bool{}
	for i := 0; i < 3; i++ {
		op, seq, body, err := fr.Next()
		if err != nil {
			t.Fatalf("reject %d: %v", i, err)
		}
		if op != OpReject {
			t.Fatalf("reply %d: op %#x, want Reject", i, op)
		}
		reason, err := DecodeReject(body)
		if err != nil || reason != RejectBusy {
			t.Fatalf("reject %d: reason %d err %v", i, reason, err)
		}
		rejected[seq] = true
	}
	for seq := uint32(3); seq <= 5; seq++ {
		if !rejected[seq] {
			t.Fatalf("seq %d was not rejected; rejected set: %v", seq, rejected)
		}
	}
	if got := srv.m.rejects.Value(); got != 3 {
		t.Fatalf("rejects_total = %d, want 3", got)
	}
	if got := srv.m.inflight.Value(); got != 2 {
		t.Fatalf("inflight = %d with worker parked, want 2", got)
	}

	// Release the worker: both admitted requests must be answered in order.
	close(be.gate)
	for want := uint32(1); want <= 2; want++ {
		op, seq, body, err := fr.Next()
		if err != nil {
			t.Fatalf("decided %d: %v", want, err)
		}
		if op != OpDecided || seq != want {
			t.Fatalf("reply op=%#x seq=%d, want Decided seq=%d", op, seq, want)
		}
		ids, _, err := DecodeDecided(body, MaxBatch, nil)
		if err != nil || len(ids) != 1 || ids[0] != 1 {
			t.Fatalf("decided %d: ids=%v err=%v", want, ids, err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for srv.m.inflight.Value() != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("inflight stuck at %d after drain", srv.m.inflight.Value())
		}
		time.Sleep(time.Millisecond)
	}
	if got := srv.m.decisions.Value(); got != 2 {
		t.Fatalf("decisions_total = %d, want 2", got)
	}
}

// TestBackpressureRecovery: after a burst of rejects the ring drains and the
// same connection serves new requests normally.
func TestBackpressureRecovery(t *testing.T) {
	be := newBlockBackend()
	reg := telemetry.NewRegistry()
	srv, err := New(Config{Backend: be, Ring: 1, Telemetry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	nc := dialTestServer(t, srv)
	fr := NewFrameReader(nc, MaxPayload)
	nc.SetReadDeadline(time.Now().Add(5 * time.Second))

	var buf []byte
	buf = AppendDecide(buf, 1, []uint64{1}, []uint16{0})
	if _, err := nc.Write(buf); err != nil {
		t.Fatal(err)
	}
	<-be.started
	if _, err := nc.Write(AppendDecide(nil, 2, []uint64{2}, []uint16{0})); err != nil {
		t.Fatal(err)
	}
	op, seq, _, err := fr.Next()
	if err != nil || op != OpReject || seq != 2 {
		t.Fatalf("op=%#x seq=%d err=%v, want Reject seq=2", op, seq, err)
	}
	close(be.gate)
	if op, seq, _, err = fr.Next(); err != nil || op != OpDecided || seq != 1 {
		t.Fatalf("op=%#x seq=%d err=%v, want Decided seq=1", op, seq, err)
	}
	// The worker recycles the request slot after it has written the reply;
	// wait for that, as a client backing off after EAGAIN would.
	for deadline := time.Now().Add(2 * time.Second); srv.Introspect().Conns[0].FreeSlots == 0; {
		if time.Now().After(deadline) {
			t.Fatal("request slot never returned to the free list")
		}
		time.Sleep(100 * time.Microsecond)
	}
	// The rejected request retried after EAGAIN now succeeds.
	if _, err := nc.Write(AppendDecide(nil, 3, []uint64{2}, []uint16{0})); err != nil {
		t.Fatal(err)
	}
	if op, seq, _, err = fr.Next(); err != nil || op != OpDecided || seq != 3 {
		t.Fatalf("op=%#x seq=%d err=%v, want Decided seq=3", op, seq, err)
	}
	if got := srv.m.rejects.Value(); got != 1 {
		t.Fatalf("rejects_total = %d, want 1", got)
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
