package server

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"repro/internal/engine"
)

// readOne parses exactly one frame from an encoded buffer.
func readOne(t *testing.T, frame []byte) (byte, uint32, []byte) {
	t.Helper()
	fr := NewFrameReader(bytes.NewReader(frame), 0)
	op, seq, body, err := fr.Next()
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	return op, seq, append([]byte(nil), body...)
}

func TestWireDecideRoundTrip(t *testing.T) {
	keys := []uint64{0, 1, 1 << 63, 0xdeadbeefcafe, 42}
	outs := []uint16{0, 1, 2, 0, 65535}
	frame := AppendDecide(nil, 7, keys, outs)
	op, seq, body := readOne(t, frame)
	if op != OpDecide || seq != 7 {
		t.Fatalf("op=%#x seq=%d", op, seq)
	}
	pkts, traceID, err := DecodeDecide(body, MaxBatch, nil)
	if err != nil {
		t.Fatal(err)
	}
	if traceID != 0 {
		t.Fatalf("untraced decide decoded trace id %d", traceID)
	}
	if len(pkts) != len(keys) {
		t.Fatalf("decoded %d pkts, want %d", len(pkts), len(keys))
	}
	for i := range pkts {
		if pkts[i].Key != keys[i] || pkts[i].Out != int(outs[i]) {
			t.Fatalf("pkt %d = %+v, want key %d out %d", i, pkts[i], keys[i], outs[i])
		}
		if pkts[i].ID != -1 || pkts[i].OK {
			t.Fatalf("pkt %d not reset: %+v", i, pkts[i])
		}
	}
}

func TestWireDecidedRoundTrip(t *testing.T) {
	pkts := []engine.Packet{
		{ID: 3, OK: true},
		{ID: 99, OK: false}, // !OK must flatten to -1 regardless of ID
		{ID: -1, OK: false},
		{ID: 0, OK: true},
	}
	frame := AppendDecided(nil, 9, pkts)
	op, seq, body := readOne(t, frame)
	if op != OpDecided || seq != 9 {
		t.Fatalf("op=%#x seq=%d", op, seq)
	}
	ids, tr, err := DecodeDecided(body, MaxBatch, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tr.ID != 0 {
		t.Fatalf("untraced decided decoded trace %+v", tr)
	}
	want := []int32{3, -1, -1, 0}
	for i, id := range ids {
		if id != want[i] {
			t.Fatalf("id[%d] = %d, want %d", i, id, want[i])
		}
	}
}

func TestWireTableRoundTrip(t *testing.T) {
	const dims = 3
	ops := []TableOp{
		{Kind: TableAdd, ID: 1, Vals: []int64{1, -2, 3}},
		{Kind: TableDelete, ID: 7},
		{Kind: TableUpsert, ID: 2, Vals: []int64{9, 9, 9}},
		{Kind: TableUpdate, ID: 1, Vals: []int64{-1 << 40, 0, 1 << 40}},
	}
	frame, err := AppendTable(nil, 3, ops, dims)
	if err != nil {
		t.Fatal(err)
	}
	op, seq, body := readOne(t, frame)
	if op != OpTable || seq != 3 {
		t.Fatalf("op=%#x seq=%d", op, seq)
	}
	got, _, err := DecodeTable(body, dims, MaxBatch, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ops) {
		t.Fatalf("decoded %d ops, want %d", len(got), len(ops))
	}
	for i := range ops {
		if got[i].Kind != ops[i].Kind || got[i].ID != ops[i].ID {
			t.Fatalf("op %d = %+v, want %+v", i, got[i], ops[i])
		}
		if ops[i].Kind == TableDelete {
			if got[i].Vals != nil {
				t.Fatalf("delete op %d decoded values %v", i, got[i].Vals)
			}
			continue
		}
		for d := range ops[i].Vals {
			if got[i].Vals[d] != ops[i].Vals[d] {
				t.Fatalf("op %d val %d = %d, want %d", i, d, got[i].Vals[d], ops[i].Vals[d])
			}
		}
	}
}

// TestWireTableArenaStability: decoding into a reused (ops, arena) pair must
// not leave earlier Vals aliasing a stale arena after growth.
func TestWireTableArenaStability(t *testing.T) {
	const dims = 2
	big := make([]TableOp, 64)
	for i := range big {
		big[i] = TableOp{Kind: TableAdd, ID: uint32(i), Vals: []int64{int64(i), int64(-i)}}
	}
	frame, err := AppendTable(nil, 1, big, dims)
	if err != nil {
		t.Fatal(err)
	}
	_, _, body := readOne(t, frame)
	// Seed a deliberately tiny arena so growth must occur.
	ops, _, err := DecodeTable(body, dims, MaxBatch, nil, make([]int64, 0, 2))
	if err != nil {
		t.Fatal(err)
	}
	for i := range ops {
		if ops[i].Vals[0] != int64(i) || ops[i].Vals[1] != int64(-i) {
			t.Fatalf("op %d vals %v after arena growth", i, ops[i].Vals)
		}
	}
}

func TestWireHelloAndAckRoundTrip(t *testing.T) {
	_, _, body := readOne(t, AppendHello(nil, 1, 3))
	v, dims, err := DecodeHello(body)
	if err != nil || v != Version || dims != 3 {
		t.Fatalf("hello -> v=%d dims=%d err=%v", v, dims, err)
	}
	info := HelloInfo{Version: Version, Dims: 3, Capacity: 1024, Shards: 8, Outputs: 2}
	_, _, body = readOne(t, AppendHelloAck(nil, 2, info))
	got, err := DecodeHelloAck(body)
	if err != nil || got != info {
		t.Fatalf("helloack -> %+v err=%v, want %+v", got, err, info)
	}
}

func TestWireAckFrames(t *testing.T) {
	_, _, body := readOne(t, AppendTableAck(nil, 4, []byte{StatusOK, StatusInvalid, StatusClosed}))
	sts, err := DecodeTableAck(body, MaxBatch, nil)
	if err != nil || len(sts) != 3 || sts[1] != StatusInvalid {
		t.Fatalf("tableack -> %v err=%v", sts, err)
	}
	_, _, body = readOne(t, AppendSwapAck(nil, 5, StatusInvalid, "parse: boom"))
	st, msg, err := DecodeSwapAck(body)
	if err != nil || st != StatusInvalid || msg != "parse: boom" {
		t.Fatalf("swapack -> %d %q err=%v", st, msg, err)
	}
	_, _, body = readOne(t, AppendReject(nil, 6, RejectBusy))
	reason, err := DecodeReject(body)
	if err != nil || reason != RejectBusy {
		t.Fatalf("reject -> %d err=%v", reason, err)
	}
	op, seq, body := readOne(t, AppendErr(nil, 8, "bad frame"))
	if op != OpErr || seq != 8 || string(body) != "bad frame" {
		t.Fatalf("err frame -> op=%#x seq=%d body=%q", op, seq, body)
	}
}

func TestFrameReaderRejectsOversized(t *testing.T) {
	frame := AppendFrame(nil, OpSwap, 1, make([]byte, 128))
	fr := NewFrameReader(bytes.NewReader(frame), 64)
	if _, _, _, err := fr.Next(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestFrameReaderRejectsUndersized(t *testing.T) {
	// Declared payload below the opcode+seq prefix can never be valid.
	fr := NewFrameReader(bytes.NewReader([]byte{4, 0, 0, 0, OpHello, 0, 0, 0, 0}), 0)
	if _, _, _, err := fr.Next(); !errors.Is(err, ErrMalformed) {
		t.Fatalf("err = %v, want ErrMalformed", err)
	}
}

func TestFrameReaderTruncation(t *testing.T) {
	frame := AppendDecide(nil, 1, []uint64{1, 2, 3}, []uint16{0, 0, 0})
	// A clean EOF between frames is io.EOF; any mid-frame cut is
	// io.ErrUnexpectedEOF.
	fr := NewFrameReader(bytes.NewReader(nil), 0)
	if _, _, _, err := fr.Next(); err != io.EOF {
		t.Fatalf("empty stream err = %v, want io.EOF", err)
	}
	for cut := 1; cut < len(frame); cut++ {
		fr := NewFrameReader(bytes.NewReader(frame[:cut]), 0)
		_, _, _, err := fr.Next()
		if err == nil {
			t.Fatalf("cut at %d accepted", cut)
		}
		if cut >= 4 && !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("cut at %d: err = %v, want ErrUnexpectedEOF", cut, err)
		}
	}
}

func TestFrameReaderSequence(t *testing.T) {
	var stream []byte
	stream = AppendHello(stream, 1, 3)
	stream = AppendDecide(stream, 2, []uint64{5}, []uint16{0})
	stream = AppendSwap(stream, 3, "policy p\nout a = min(table, cpu)\n")
	fr := NewFrameReader(bytes.NewReader(stream), 0)
	wantOps := []byte{OpHello, OpDecide, OpSwap}
	for i, want := range wantOps {
		op, seq, _, err := fr.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if op != want || seq != uint32(i+1) {
			t.Fatalf("frame %d: op=%#x seq=%d", i, op, seq)
		}
	}
	if _, _, _, err := fr.Next(); err != io.EOF {
		t.Fatalf("trailing err = %v, want io.EOF", err)
	}
}

// TestDecodeCountMismatch: declared counts that disagree with the body length
// must fail without allocating proportionally to the count.
func TestDecodeCountMismatch(t *testing.T) {
	// Decide declaring 65535 ops with a near-empty body.
	body := []byte{0xff, 0xff, 1, 2, 3}
	if _, _, err := DecodeDecide(body, MaxBatch, nil); err == nil {
		t.Fatal("mismatched decide accepted")
	}
	if _, _, err := DecodeTable(body, 3, MaxBatch, nil, nil); err == nil {
		t.Fatal("mismatched table accepted")
	}
	if _, _, err := DecodeDecided(body, MaxBatch, nil); err == nil {
		t.Fatal("mismatched decided accepted")
	}
	if _, err := DecodeTableAck(body, MaxBatch, nil); err == nil {
		t.Fatal("mismatched tableack accepted")
	}
	// Batch caps are enforced even when the length would match.
	over := make([]uint64, MaxBatch+1)
	frame := AppendDecide(nil, 1, over, make([]uint16, len(over)))
	fr := NewFrameReader(bytes.NewReader(frame), 0)
	_, _, b, err := fr.Next()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeDecide(b, MaxBatch, nil); err == nil {
		t.Fatal("over-cap decide accepted")
	}
}

func TestWireTracedDecideRoundTrip(t *testing.T) {
	keys := []uint64{1, 2, 3}
	outs := []uint16{0, 1, 0}
	const traceID = uint64(0xfeedfacecafebeef)
	frame := AppendDecideTrace(nil, 11, keys, outs, traceID)
	op, seq, body := readOne(t, frame)
	if op != OpDecide || seq != 11 {
		t.Fatalf("op=%#x seq=%d", op, seq)
	}
	pkts, gotID, err := DecodeDecide(body, MaxBatch, nil)
	if err != nil {
		t.Fatal(err)
	}
	if gotID != traceID {
		t.Fatalf("trace id = %#x, want %#x", gotID, traceID)
	}
	if len(pkts) != len(keys) {
		t.Fatalf("decoded %d pkts, want %d", len(pkts), len(keys))
	}
	for i := range pkts {
		if pkts[i].Key != keys[i] || pkts[i].Out != int(outs[i]) || pkts[i].ID != -1 || pkts[i].OK {
			t.Fatalf("pkt %d = %+v", i, pkts[i])
		}
	}
	// A traced body with a zero trace ID is malformed, not silently untraced.
	zero := AppendDecideTrace(nil, 12, keys, outs, 0)
	_, _, zbody := readOne(t, zero)
	if _, _, err := DecodeDecide(zbody, MaxBatch, nil); !errors.Is(err, ErrMalformed) {
		t.Fatalf("zero trace id err = %v, want ErrMalformed", err)
	}
	// Truncated trace trailer must fail, not decode as untraced.
	if _, _, err := DecodeDecide(body[:len(body)-3], MaxBatch, nil); !errors.Is(err, ErrMalformed) {
		t.Fatalf("truncated trailer err = %v, want ErrMalformed", err)
	}
}

func TestWireTracedDecidedRoundTrip(t *testing.T) {
	pkts := []engine.Packet{{ID: 5, OK: true}, {ID: 0, OK: false}}
	want := DecideTrace{ID: 77, RecvNs: 100, AdmitNs: 150, StartNs: 200, DoneNs: 900}
	frame := AppendDecidedTrace(nil, 13, pkts, want)
	op, seq, body := readOne(t, frame)
	if op != OpDecided || seq != 13 {
		t.Fatalf("op=%#x seq=%d", op, seq)
	}
	ids, got, err := DecodeDecided(body, MaxBatch, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("trace = %+v, want %+v", got, want)
	}
	if len(ids) != 2 || ids[0] != 5 || ids[1] != -1 {
		t.Fatalf("ids = %v", ids)
	}
	// Truncated trailer.
	if _, _, err := DecodeDecided(body[:len(body)-1], MaxBatch, nil); !errors.Is(err, ErrMalformed) {
		t.Fatalf("truncated trailer err = %v, want ErrMalformed", err)
	}
}

// TestWireTracedUntracedCompat: a traced frame is the untraced frame plus
// the flag bit and the trailer, so untraced frames carry no trace bytes,
// and the count word's flag bit must never be reachable from a legal batch
// size.
func TestWireTracedUntracedCompat(t *testing.T) {
	keys := []uint64{9}
	outs := []uint16{3}
	plain := AppendDecide(nil, 1, keys, outs)
	traced := AppendDecideTrace(nil, 1, keys, outs, 42)
	if len(traced) != len(plain)+8 {
		t.Fatalf("traced decide adds %d bytes, want 8", len(traced)-len(plain))
	}
	// The shared prefix differs only in the flag bit of the count word.
	if plain[4+headerLen]|0x00 != traced[4+headerLen] || plain[5+headerLen]|0x80 != traced[5+headerLen] {
		t.Fatalf("count words: plain %x%x traced %x%x", plain[4+headerLen], plain[5+headerLen], traced[4+headerLen], traced[5+headerLen])
	}
	if MaxBatch&TraceFlag != 0 {
		t.Fatal("TraceFlag collides with a legal batch count")
	}
}
