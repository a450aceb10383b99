package server

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math/rand"
	"testing"
	"testing/iotest"
)

// chunkReader delivers r in reads of at most next() bytes, the way a socket
// delivers a stream in segments that ignore frame boundaries.
type chunkReader struct {
	r    io.Reader
	next func() int
}

func (c chunkReader) Read(p []byte) (int, error) {
	if n := c.next(); n < len(p) {
		p = p[:max(n, 1)]
	}
	return c.r.Read(p)
}

// wantFrame is one frame of a test stream, cut from the encoder's output
// without going through a FrameReader.
type wantFrame struct {
	op   byte
	seq  uint32
	body []byte
}

// mixedStream is one stream of every frame shape the reader meets: each
// request type, empty bodies, a run of small frames that share one read, a
// frame larger than the initial buffer and a frame of exactly MaxPayload.
func mixedStream(t *testing.T) ([]byte, []wantFrame) {
	t.Helper()
	var stream []byte
	var want []wantFrame
	seq := uint32(0)
	add := func(encode func(dst []byte, seq uint32) []byte) {
		seq++
		start := len(stream)
		stream = encode(stream, seq)
		f := stream[start:]
		if got := int(binary.LittleEndian.Uint32(f)); got != len(f)-4 {
			t.Fatalf("frame %d declares %d payload bytes, has %d", seq, got, len(f)-4)
		}
		want = append(want, wantFrame{f[4], binary.LittleEndian.Uint32(f[5:]), f[4+headerLen:]})
	}
	decide := func(n int) func([]byte, uint32) []byte {
		keys, outs := make([]uint64, n), make([]uint16, n)
		for i := range keys {
			keys[i], outs[i] = uint64(i)*0x9E3779B97F4A7C15, uint16(i%3)
		}
		return func(dst []byte, seq uint32) []byte { return AppendDecide(dst, seq, keys, outs) }
	}
	add(func(dst []byte, seq uint32) []byte { return AppendHello(dst, seq, 3) })
	add(decide(1))
	add(func(dst []byte, seq uint32) []byte { return AppendPing(dst, seq) })
	add(decide(8))
	add(decide(MaxBatch)) // 40 KiB: larger than readBufInit
	add(func(dst []byte, seq uint32) []byte {
		return AppendDecideTrace(dst, seq, []uint64{7, 8}, []uint16{0, 1}, 0xfeedface)
	})
	add(func(dst []byte, seq uint32) []byte {
		f, err := AppendTable(dst, seq, []TableOp{
			{Kind: TableUpsert, ID: 4, Vals: []int64{1, -2, 3}},
			{Kind: TableDelete, ID: 9},
		}, 3)
		if err != nil {
			t.Fatal(err)
		}
		return f
	})
	add(func(dst []byte, seq uint32) []byte {
		return AppendSwap(dst, seq, "policy p\nout a = min(table, cpu)\n")
	})
	for i := 0; i < 40; i++ { // a burst of empty bodies
		add(func(dst []byte, seq uint32) []byte { return AppendPing(dst, seq) })
	}
	add(func(dst []byte, seq uint32) []byte {
		return AppendFrame(dst, OpSwap, seq, bytes.Repeat([]byte{0xA5}, MaxPayload-headerLen))
	})
	add(decide(8))
	add(func(dst []byte, seq uint32) []byte { return AppendPing(dst, seq) })
	return stream, want
}

// TestFrameReaderChunkingDifferential: however the stream is cut into reads
// — whole, byte by byte, halved, with the error delivered beside the last
// bytes, or at random sizes — the reader returns the same frames and ends in
// the same error.
func TestFrameReaderChunkingDifferential(t *testing.T) {
	stream, want := mixedStream(t)
	endings := []struct {
		name  string
		tail  []byte
		check func(error) bool
	}{
		{"clean EOF", nil, func(err error) bool { return err == io.EOF }},
		{"cut in the length word", []byte{9, 0}, func(err error) bool { return err == io.ErrUnexpectedEOF }},
		{"cut in the header", []byte{9, 0, 0, 0, OpPing, 1}, func(err error) bool { return err == io.ErrUnexpectedEOF }},
		{"cut in the body", AppendDecide(nil, 99, []uint64{1, 2}, []uint16{0, 0})[:20], func(err error) bool { return err == io.ErrUnexpectedEOF }},
		{"length over the cap", []byte{0xff, 0xff, 0xff, 0x7f, OpDecide}, func(err error) bool { return errors.Is(err, ErrFrameTooLarge) }},
		{"length under the header", []byte{4, 0, 0, 0, OpPing, 0, 0, 0, 0}, func(err error) bool { return errors.Is(err, ErrMalformed) }},
	}
	rng := rand.New(rand.NewSource(18))
	readers := []struct {
		name string
		wrap func(io.Reader) io.Reader
	}{
		{"whole", func(r io.Reader) io.Reader { return r }},
		{"one byte", iotest.OneByteReader},
		{"half", iotest.HalfReader},
		{"data with error", iotest.DataErrReader},
		{"random small", func(r io.Reader) io.Reader { return chunkReader{r, func() int { return 1 + rng.Intn(64) }} }},
		{"random large", func(r io.Reader) io.Reader { return chunkReader{r, func() int { return 1 + rng.Intn(3*readBufInit) }} }},
	}
	for _, end := range endings {
		full := append(stream[:len(stream):len(stream)], end.tail...)
		for _, rd := range readers {
			fr := NewFrameReader(rd.wrap(bytes.NewReader(full)), 0)
			for i, w := range want {
				op, seq, body, err := fr.Next()
				if err != nil {
					t.Fatalf("%s, %s: frame %d: %v", end.name, rd.name, i, err)
				}
				if op != w.op || seq != w.seq || !bytes.Equal(body, w.body) {
					t.Fatalf("%s, %s: frame %d: op=%#x seq=%d body %d B, want op=%#x seq=%d body %d B",
						end.name, rd.name, i, op, seq, len(body), w.op, w.seq, len(w.body))
				}
			}
			if _, _, _, err := fr.Next(); !end.check(err) {
				t.Fatalf("%s, %s: terminal error %v", end.name, rd.name, err)
			}
			if got, limit := len(fr.buf), 4+MaxPayload; got > limit {
				t.Fatalf("%s, %s: read buffer grew to %d B, over 4 + MaxPayload = %d", end.name, rd.name, got, limit)
			}
		}
	}
}

// TestFrameReaderBufferGrowth: the buffer starts at readBufInit, stays there
// for frames that fit, at least doubles for one that does not (so a stream of
// rising frame sizes reallocates O(log) times) and stops at 4 + the cap.
func TestFrameReaderBufferGrowth(t *testing.T) {
	decide := func(keys int) []byte {
		return AppendDecide(nil, 1, make([]uint64, keys), make([]uint16, keys))
	}
	full := appendHeader(nil, OpPing, 9, MaxPayload-headerLen)
	full = append(full, make([]byte, MaxPayload-headerLen)...)
	steps := []struct {
		frame []byte
		want  int
	}{
		{decide(8), readBufInit},
		{decide(450), 2 * readBufInit},    // 4.5 KB: doubled
		{decide(460), 2 * readBufInit},    // fits: no growth
		{decide(1024), 4 * readBufInit},   // 10 KB: doubled again
		{decide(4096), len(decide(4096))}, // 40 KB, past double: exact
		{full, 4 + MaxPayload},            // clamped
		{decide(8), 4 + MaxPayload},
	}
	var stream []byte
	for _, s := range steps {
		stream = append(stream, s.frame...)
	}
	fr := NewFrameReader(bytes.NewReader(stream), 0)
	for i, s := range steps {
		if _, _, _, err := fr.Next(); err != nil {
			t.Fatal(err)
		}
		if len(fr.buf) != s.want {
			t.Fatalf("after frame %d (%d B) the buffer is %d B, want %d", i, len(s.frame), len(fr.buf), s.want)
		}
	}
}

// cycleReader replays one byte string forever, in reads cut at a fixed size
// that is no multiple of a frame.
type cycleReader struct {
	data []byte
	off  int
}

func (c *cycleReader) Read(p []byte) (int, error) {
	n := copy(p[:min(len(p), 1000)], c.data[c.off:])
	c.off = (c.off + n) % len(c.data)
	return n, nil
}

// TestFrameReaderSteadyStateAllocs: once the buffer has grown to the working
// frame size, Next allocates nothing — whether a frame is already buffered,
// straddles two reads or needs the partial frame moved to the front.
func TestFrameReaderSteadyStateAllocs(t *testing.T) {
	var stream []byte
	stream = AppendDecide(stream, 1, make([]uint64, 8), make([]uint16, 8))
	stream = AppendPing(stream, 2)
	stream = AppendDecide(stream, 3, make([]uint64, 1024), make([]uint16, 1024))
	fr := NewFrameReader(&cycleReader{data: stream}, 0)
	next := func() {
		for i := 0; i < 3; i++ {
			if _, _, _, err := fr.Next(); err != nil {
				t.Fatal(err)
			}
		}
	}
	next() // grow to the largest frame
	if allocs := testing.AllocsPerRun(200, next); allocs != 0 {
		t.Fatalf("steady-state Next allocates %.1f times per three frames, want 0", allocs)
	}
}
