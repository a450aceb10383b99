package server

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/policy"
)

// fuzzSeeds returns one valid encoding of every frame type plus known-nasty
// shapes: truncations, oversized declared lengths, garbage opcodes.
func fuzzSeeds() [][]byte {
	var seeds [][]byte
	add := func(b []byte, err error) {
		if err == nil {
			seeds = append(seeds, b)
		}
	}
	seeds = append(seeds,
		AppendHello(nil, 1, 3),
		AppendHelloAck(nil, 1, HelloInfo{Version: Version, Dims: 3, Capacity: 64, Shards: 2, Outputs: 1}),
		AppendDecide(nil, 2, []uint64{1, 2, 3}, []uint16{0, 0, 1}),
		AppendDecided(nil, 2, []engine.Packet{{ID: 4, OK: true}, {ID: -1}}),
		AppendDecideTrace(nil, 2, []uint64{1, 2}, []uint16{0, 1}, 0xabad1dea),
		AppendDecidedTrace(nil, 2, []engine.Packet{{ID: 4, OK: true}},
			DecideTrace{ID: 0xabad1dea, RecvNs: 1, AdmitNs: 2, StartNs: 3, DoneNs: 4}),
		AppendSwap(nil, 3, "policy p\nout a = min(table, cpu)\n"),
		AppendSwapAck(nil, 3, StatusOK, ""),
		AppendTableAck(nil, 4, []byte{StatusOK, StatusInvalid}),
		AppendPing(nil, 5),
		AppendPong(nil, 5, PongInfo{UptimeNs: 42, Build: "fuzz"}),
		AppendPong(nil, 5, PongInfo{}),
		AppendReject(nil, 6, RejectBusy),
		AppendErr(nil, 7, "boom"),
	)
	add(AppendTable(nil, 4, []TableOp{
		{Kind: TableAdd, ID: 1, Vals: []int64{1, 2, 3}},
		{Kind: TableDelete, ID: 1},
	}, 3))
	// Truncated frame: valid prefix, cut mid-body.
	d := AppendDecide(nil, 8, []uint64{9, 9}, []uint16{0, 0})
	seeds = append(seeds, d[:len(d)-5])
	// Oversized declared length with a tiny actual body.
	seeds = append(seeds, []byte{0xff, 0xff, 0xff, 0x7f, OpDecide, 0, 0, 0, 0, 1, 2})
	// Zero and under-header declared lengths.
	seeds = append(seeds, []byte{0, 0, 0, 0, OpPing})
	seeds = append(seeds, []byte{2, 0, 0, 0, OpPing, 0})
	// Garbage opcode, count/length disagreements.
	seeds = append(seeds, AppendFrame(nil, 0xEE, 9, []byte{1, 2, 3}))
	seeds = append(seeds, AppendFrame(nil, OpTable, 10, []byte{0xff, 0xff, TableAdd, 0}))
	seeds = append(seeds, AppendFrame(nil, OpDecide, 11, []byte{0xff, 0xff, 0, 0}))
	return seeds
}

// FuzzFrameRoundTrip drives arbitrary bytes through the frame reader and all
// body decoders. Nothing may panic, and any Decide/Table body that decodes
// must re-encode to the identical canonical frame (the codec has exactly one
// encoding per message). A second reader takes the same bytes in reads of at
// most chunk bytes and must return the same frames and the same final error:
// what the reader returns depends on the stream, never on how it was cut.
func FuzzFrameRoundTrip(f *testing.F) {
	for i, s := range fuzzSeeds() {
		f.Add(s, byte(i))
	}
	f.Fuzz(func(t *testing.T, data []byte, chunk byte) {
		fr := NewFrameReader(bytes.NewReader(data), 1<<16)
		cut := NewFrameReader(chunkReader{bytes.NewReader(data), func() int { return int(chunk) }}, 1<<16)
		for {
			op, seq, body, err := fr.Next()
			cop, cseq, cbody, cerr := cut.Next()
			if (err == nil) != (cerr == nil) || (err != nil && err.Error() != cerr.Error()) {
				t.Fatalf("whole read ends in %v, reads of %d B in %v", err, chunk, cerr)
			}
			if err != nil {
				return
			}
			if op != cop || seq != cseq || !bytes.Equal(body, cbody) {
				t.Fatalf("whole read: op=%#x seq=%d body %x; reads of %d B: op=%#x seq=%d body %x", op, seq, body, chunk, cop, cseq, cbody)
			}
			switch op {
			case OpDecide:
				pkts, traceID, err := DecodeDecide(body, MaxBatch, nil)
				if err != nil {
					continue
				}
				keys := make([]uint64, len(pkts))
				outs := make([]uint16, len(pkts))
				for i := range pkts {
					keys[i], outs[i] = pkts[i].Key, uint16(pkts[i].Out)
				}
				var re []byte
				if traceID != 0 {
					re = AppendDecideTrace(nil, seq, keys, outs, traceID)
				} else {
					re = AppendDecide(nil, seq, keys, outs)
				}
				if !bytes.Equal(re[4+headerLen:], body) {
					t.Fatalf("decide re-encode mismatch:\n  got  %x\n  want %x", re[4+headerLen:], body)
				}
			case OpTable:
				const dims = 3
				ops, _, err := DecodeTable(body, dims, MaxBatch, nil, nil)
				if err != nil {
					continue
				}
				re, err := AppendTable(nil, seq, ops, dims)
				if err != nil {
					t.Fatalf("decoded table fails to re-encode: %v", err)
				}
				if !bytes.Equal(re[4+headerLen:], body) {
					t.Fatalf("table re-encode mismatch:\n  got  %x\n  want %x", re[4+headerLen:], body)
				}
			case OpDecided:
				_, _, _ = DecodeDecided(body, MaxBatch, nil)
			case OpTableAck:
				_, _ = DecodeTableAck(body, MaxBatch, nil)
			case OpSwapAck:
				_, _, _ = DecodeSwapAck(body)
			case OpPong:
				_, _ = DecodePong(body)
			case OpReject:
				_, _ = DecodeReject(body)
			case OpHello:
				_, _, _ = DecodeHello(body)
			case OpHelloAck:
				_, _ = DecodeHelloAck(body)
			}
		}
	})
}

// FuzzServerDecode feeds arbitrary byte streams to a live server over a Unix
// socket. The server must never panic, never wedge, and always release the
// connection: the client half-closes after writing, so a hang here means the
// read loop failed to terminate on garbage input.
func FuzzServerDecode(f *testing.F) {
	eng, err := engine.New(engine.Config{
		Shards:   1,
		Capacity: 8,
		Schema:   policy.Schema{Attrs: []string{"cpu", "mem", "bw"}},
		Policy:   policy.MustParse("policy fz\nout best = min(table, cpu)\n"),
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(eng.Close)
	srv, err := New(Config{Backend: eng})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(srv.Close)
	sock := f.TempDir() + "/fz.sock"
	l, err := net.Listen("unix", sock)
	if err != nil {
		f.Fatal(err)
	}
	go srv.Serve(l)

	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	// A multi-frame stream: valid traffic, then garbage.
	var mixed []byte
	mixed = AppendPing(mixed, 1)
	mixed = AppendDecide(mixed, 2, []uint64{7}, []uint16{0})
	mixed = AppendFrame(mixed, 0x7F, 3, []byte("junk"))
	f.Add(mixed)

	f.Fuzz(func(t *testing.T, data []byte) {
		nc, err := net.Dial("unix", sock)
		if err != nil {
			t.Skip("dial:", err)
		}
		defer nc.Close()
		nc.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := nc.Write(data); err != nil {
			return // server already dropped us (protocol error mid-stream)
		}
		nc.(*net.UnixConn).CloseWrite()
		// Drain replies until the server closes its side. Replies must all be
		// well-formed frames.
		fr := NewFrameReader(nc, MaxPayload)
		for {
			_, _, _, err := fr.Next()
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return
			}
			if err != nil {
				if ne, ok := err.(net.Error); ok && ne.Timeout() {
					t.Fatal("server wedged: no EOF within deadline")
				}
				return
			}
		}
	})
}
