// Package server puts a serving frontend on the sharded decision engine: a
// length-prefixed batched binary protocol over TCP or Unix domain sockets
// carrying decision requests, SMBM table updates and live policy hot-swaps.
//
// # Framing
//
// Every message is one frame:
//
//	+-----------+--------+---------+----------------+
//	| u32 len   | u8 op  | u32 seq | body (len-5 B) |
//	+-----------+--------+---------+----------------+
//
// len counts everything after the length field (opcode + seq + body) and is
// capped at MaxPayload; integers are little-endian. seq is chosen by the
// client and echoed verbatim in the reply, which is what lets a client keep
// many batches in flight on one connection (pipelining) and still match
// answers to requests.
//
// # Request/reply pairs
//
//	Decide  -> Decided    batched decisions: (key, out) pairs in, ids out
//	Table   -> TableAck   batched SMBM ops: add/update/upsert/delete
//	Swap    -> SwapAck    live policy hot-swap (DSL text)
//	Hello   -> HelloAck   version + schema handshake
//	any     -> Reject     not executed, retry later (EAGAIN); defined and
//	                      decodable, but this server never sends it
//	any     -> Err        protocol error; the server closes the connection
//
// The server answers a connection's requests strictly in arrival order, one
// at a time, and queues no request: each gets its reply, or the connection is
// visibly dead. Both ends read through a buffered FrameReader, and the server
// writes the replies to a pipelined burst together — but never holds a reply
// while it waits for more input.
//
// Flow-keyed routing is carried by the decision key itself: the server hands
// it unchanged to engine.DecideBatch, which steers key mod shards, so one
// flow's packets always execute on the same pipeline replica no matter which
// connection delivered them.
//
// # Trace context
//
// A client may mark individual Decide frames as traced by setting TraceFlag
// (bit 15) in the leading count word and appending a u64 trace ID — the
// client makes the 1-in-N sampling decision, downstream just honors it. The
// server answers a traced Decide with a traced Decided: TraceFlag set and a
// trailing DecideTrace carrying the trace ID plus the server-side phase
// stamps (recv, admit, decide start, decide done), which lets the client
// stitch one cross-layer timeline without scraping the server. The trace
// context is an optional trailer: an untraced frame carries none of it, and
// servers never send it unsolicited.
package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/engine"
)

// Protocol constants. Version bumps whenever a frame layout changes.
const (
	// Version is the wire protocol version spoken by this package.
	Version = 2

	// MaxPayload caps one frame's payload (opcode + seq + body). Read paths
	// reject larger declared lengths before allocating anything.
	MaxPayload = 1 << 20

	// MaxBatch caps the ops in one Decide or Table frame.
	MaxBatch = 4096

	// TraceFlag marks a traced Decide/Decided body: set in the high bit of
	// the leading u16 count, it flags a trailing trace section (a u64 trace
	// ID on Decide; a DecideTrace record on Decided). The bit can never
	// collide with a real count because counts are capped at MaxBatch,
	// which is far below bit 15; TestFullBatchesThroughServer sends MaxBatch
	// counts traced and untraced.
	TraceFlag = 0x8000

	// headerLen is opcode + seq, the fixed payload prefix.
	headerLen = 5
)

// Opcodes.
const (
	OpHello    = 0x01
	OpHelloAck = 0x02
	OpDecide   = 0x03
	OpDecided  = 0x04
	OpTable    = 0x05
	OpTableAck = 0x06
	OpSwap     = 0x07
	OpSwapAck  = 0x08
	// 0x09 and 0x0A are unassigned: a server answers them as unknown
	// opcodes.
	OpReject = 0x0B
	OpErr    = 0x0C
)

// Table op kinds (TableOp.Kind).
const (
	TableAdd    = 0x01
	TableUpdate = 0x02
	TableUpsert = 0x03
	TableDelete = 0x04
)

// Per-op statuses in a TableAck body.
const (
	StatusOK      = 0x00 // applied to every replica table
	StatusInvalid = 0x01 // table validation rejected it (dup/missing id, full)
	StatusClosed  = 0x02 // engine closed
)

// Reject reasons.
const (
	// RejectBusy: the server had no room for the request. It was not
	// executed; the client should back off and retry.
	RejectBusy = 0x01
)

// ErrFrameTooLarge reports a declared payload length over MaxPayload (or the
// reader's configured cap). The stream is unrecoverable past this point.
var ErrFrameTooLarge = errors.New("server: frame exceeds payload cap")

// ErrMalformed reports a body that does not parse under its opcode.
var ErrMalformed = errors.New("server: malformed frame body")

// TableOp is one decoded SMBM table operation.
type TableOp struct {
	Kind byte
	ID   uint32
	Vals []int64 // nil for TableDelete
}

// HelloInfo is the server identity carried by a HelloAck.
type HelloInfo struct {
	Version  uint16
	Dims     uint16 // metric dimensions per resource (schema width)
	Capacity uint32 // resource slots per replica table
	Shards   uint16 // pipeline replicas behind DecideBatch
	Outputs  uint16 // outputs of the currently served policy
}

// DecideTrace is the server-side trace context echoed on a traced Decided
// reply: the sampled request's trace ID plus the server's phase stamps
// (unix nanoseconds on the server clock). A zero ID means "untraced".
// The phases map onto the frame's life: Recv (frame decoded off the
// socket), Start (entered DecideBatch), Done (DecideBatch returned). Admit
// is kept for layout compatibility and always equals Start: the connection
// executes a frame as soon as it is decoded, with no queue in between.
type DecideTrace struct {
	ID      uint64
	RecvNs  int64
	AdmitNs int64
	StartNs int64
	DoneNs  int64
}

// decideTraceLen is the wire size of a DecideTrace trailer.
const decideTraceLen = 40

// --- encoding ---
// All encoders append one complete frame to dst and return the extended
// slice, so steady-state callers reuse one buffer with no per-frame
// allocation.

// appendHeader writes the length word and payload prefix for a frame whose
// body is bodyLen bytes.
func appendHeader(dst []byte, op byte, seq uint32, bodyLen int) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(headerLen+bodyLen))
	dst = append(dst, op)
	return binary.LittleEndian.AppendUint32(dst, seq)
}

// AppendFrame appends a raw frame with an opaque body.
func AppendFrame(dst []byte, op byte, seq uint32, body []byte) []byte {
	dst = appendHeader(dst, op, seq, len(body))
	return append(dst, body...)
}

// AppendHello appends a client handshake. dims is the schema width the
// client expects; zero means "any".
func AppendHello(dst []byte, seq uint32, dims uint16) []byte {
	dst = appendHeader(dst, OpHello, seq, 4)
	dst = binary.LittleEndian.AppendUint16(dst, Version)
	return binary.LittleEndian.AppendUint16(dst, dims)
}

// AppendHelloAck appends the server identity reply.
func AppendHelloAck(dst []byte, seq uint32, info HelloInfo) []byte {
	dst = appendHeader(dst, OpHelloAck, seq, 12)
	dst = binary.LittleEndian.AppendUint16(dst, info.Version)
	dst = binary.LittleEndian.AppendUint16(dst, info.Dims)
	dst = binary.LittleEndian.AppendUint32(dst, info.Capacity)
	dst = binary.LittleEndian.AppendUint16(dst, info.Shards)
	return binary.LittleEndian.AppendUint16(dst, info.Outputs)
}

// AppendDecide appends a batched decision request: len(keys) (key, out)
// pairs. keys and outs must have equal length, at most MaxBatch.
func AppendDecide(dst []byte, seq uint32, keys []uint64, outs []uint16) []byte {
	dst = appendHeader(dst, OpDecide, seq, 2+len(keys)*10)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(keys)))
	for i, k := range keys {
		dst = binary.LittleEndian.AppendUint64(dst, k)
		dst = binary.LittleEndian.AppendUint16(dst, outs[i])
	}
	return dst
}

// AppendDecideTrace appends a traced decision request: the same body as
// AppendDecide plus the TraceFlag count bit and a trailing u64 trace ID.
// traceID must be non-zero (zero means "untraced" everywhere).
func AppendDecideTrace(dst []byte, seq uint32, keys []uint64, outs []uint16, traceID uint64) []byte {
	dst = appendHeader(dst, OpDecide, seq, 2+len(keys)*10+8)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(keys))|TraceFlag)
	for i, k := range keys {
		dst = binary.LittleEndian.AppendUint64(dst, k)
		dst = binary.LittleEndian.AppendUint16(dst, outs[i])
	}
	return binary.LittleEndian.AppendUint64(dst, traceID)
}

// AppendDecided appends the decision reply for pkts: one i32 id per packet,
// -1 when no resource was selected (OK is recoverable as id >= 0).
func AppendDecided(dst []byte, seq uint32, pkts []engine.Packet) []byte {
	dst = appendHeader(dst, OpDecided, seq, 2+len(pkts)*4)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(pkts)))
	for i := range pkts {
		id := int32(pkts[i].ID)
		if !pkts[i].OK {
			id = -1
		}
		dst = binary.LittleEndian.AppendUint32(dst, uint32(id))
	}
	return dst
}

// AppendDecidedTrace appends a traced decision reply: the AppendDecided
// body plus the TraceFlag count bit and a trailing DecideTrace. Servers
// only send it in answer to a traced request.
func AppendDecidedTrace(dst []byte, seq uint32, pkts []engine.Packet, tr DecideTrace) []byte {
	dst = appendHeader(dst, OpDecided, seq, 2+len(pkts)*4+decideTraceLen)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(pkts))|TraceFlag)
	for i := range pkts {
		id := int32(pkts[i].ID)
		if !pkts[i].OK {
			id = -1
		}
		dst = binary.LittleEndian.AppendUint32(dst, uint32(id))
	}
	dst = binary.LittleEndian.AppendUint64(dst, tr.ID)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(tr.RecvNs))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(tr.AdmitNs))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(tr.StartNs))
	return binary.LittleEndian.AppendUint64(dst, uint64(tr.DoneNs))
}

// AppendTable appends a batched table-update request. Every non-delete op
// must carry exactly dims values.
func AppendTable(dst []byte, seq uint32, ops []TableOp, dims int) ([]byte, error) {
	if len(ops) > MaxBatch {
		return dst, fmt.Errorf("%w: %d table ops (max %d)", ErrMalformed, len(ops), MaxBatch)
	}
	body := 2
	for i := range ops {
		body += 5
		if ops[i].Kind != TableDelete {
			if len(ops[i].Vals) != dims {
				return dst, fmt.Errorf("%w: op %d has %d vals, schema has %d", ErrMalformed, i, len(ops[i].Vals), dims)
			}
			body += dims * 8
		}
	}
	dst = appendHeader(dst, OpTable, seq, body)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(ops)))
	for i := range ops {
		dst = append(dst, ops[i].Kind)
		dst = binary.LittleEndian.AppendUint32(dst, ops[i].ID)
		if ops[i].Kind != TableDelete {
			for _, v := range ops[i].Vals {
				dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
			}
		}
	}
	return dst, nil
}

// AppendTableAck appends per-op statuses.
func AppendTableAck(dst []byte, seq uint32, statuses []byte) []byte {
	dst = appendHeader(dst, OpTableAck, seq, 2+len(statuses))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(statuses)))
	return append(dst, statuses...)
}

// AppendSwap appends a policy hot-swap request; the body is the DSL text.
func AppendSwap(dst []byte, seq uint32, dsl string) []byte {
	dst = appendHeader(dst, OpSwap, seq, len(dsl))
	return append(dst, dsl...)
}

// AppendSwapAck appends a hot-swap reply: status 0 on success, otherwise a
// non-zero status followed by the error text.
func AppendSwapAck(dst []byte, seq uint32, status byte, msg string) []byte {
	dst = appendHeader(dst, OpSwapAck, seq, 1+len(msg))
	dst = append(dst, status)
	return append(dst, msg...)
}

// AppendReject appends an admission-control rejection for seq.
func AppendReject(dst []byte, seq uint32, reason byte) []byte {
	dst = appendHeader(dst, OpReject, seq, 1)
	return append(dst, reason)
}

// AppendErr appends a fatal protocol-error frame.
func AppendErr(dst []byte, seq uint32, msg string) []byte {
	dst = appendHeader(dst, OpErr, seq, len(msg))
	return append(dst, msg...)
}

// --- decoding ---
// Decoders validate the declared counts against the actual body length
// before touching any data, never allocate proportionally to a declared
// count (only to bytes actually present), and reuse caller-provided slices.

// DecodeHello parses a Hello body.
func DecodeHello(body []byte) (version, dims uint16, err error) {
	if len(body) != 4 {
		return 0, 0, fmt.Errorf("%w: hello body %d bytes, want 4", ErrMalformed, len(body))
	}
	return binary.LittleEndian.Uint16(body), binary.LittleEndian.Uint16(body[2:]), nil
}

// DecodeHelloAck parses a HelloAck body.
func DecodeHelloAck(body []byte) (HelloInfo, error) {
	if len(body) != 12 {
		return HelloInfo{}, fmt.Errorf("%w: helloack body %d bytes, want 12", ErrMalformed, len(body))
	}
	return HelloInfo{
		Version:  binary.LittleEndian.Uint16(body),
		Dims:     binary.LittleEndian.Uint16(body[2:]),
		Capacity: binary.LittleEndian.Uint32(body[4:]),
		Shards:   binary.LittleEndian.Uint16(body[8:]),
		Outputs:  binary.LittleEndian.Uint16(body[10:]),
	}, nil
}

// DecodeDecide parses a Decide body into pkts (reusing its backing array).
// Every packet comes back with ID=-1, OK=false, ready for DecideBatch.
// The returned traceID is non-zero when the sender set TraceFlag and
// appended a trace ID; untraced bodies return 0.
func DecodeDecide(body []byte, maxBatch int, pkts []engine.Packet) ([]engine.Packet, uint64, error) {
	if len(body) < 2 {
		return pkts[:0], 0, fmt.Errorf("%w: decide body %d bytes", ErrMalformed, len(body))
	}
	count := binary.LittleEndian.Uint16(body)
	n, traced := int(count&^TraceFlag), count&TraceFlag != 0
	if n > maxBatch {
		return pkts[:0], 0, fmt.Errorf("%w: %d decide ops (max %d)", ErrMalformed, n, maxBatch)
	}
	want := 2 + n*10
	if traced {
		want += 8
	}
	if len(body) != want {
		return pkts[:0], 0, fmt.Errorf("%w: decide body %d bytes for %d ops", ErrMalformed, len(body), n)
	}
	pkts = pkts[:0]
	for off := 2; off < 2+n*10; off += 10 {
		pkts = append(pkts, engine.Packet{
			Key: binary.LittleEndian.Uint64(body[off:]),
			Out: int(binary.LittleEndian.Uint16(body[off+8:])),
			ID:  -1,
		})
	}
	var traceID uint64
	if traced {
		traceID = binary.LittleEndian.Uint64(body[2+n*10:])
		if traceID == 0 {
			return pkts[:0], 0, fmt.Errorf("%w: traced decide with zero trace id", ErrMalformed)
		}
	}
	return pkts, traceID, nil
}

// DecodeDecided parses a Decided body into ids (reusing its backing array).
// The returned DecideTrace carries the server's phase stamps when the
// reply was traced (TraceFlag set); its ID is 0 for an untraced reply.
func DecodeDecided(body []byte, maxBatch int, ids []int32) ([]int32, DecideTrace, error) {
	var tr DecideTrace
	if len(body) < 2 {
		return ids[:0], tr, fmt.Errorf("%w: decided body %d bytes", ErrMalformed, len(body))
	}
	count := binary.LittleEndian.Uint16(body)
	n, traced := int(count&^TraceFlag), count&TraceFlag != 0
	if n > maxBatch {
		return ids[:0], tr, fmt.Errorf("%w: %d decided ops (max %d)", ErrMalformed, n, maxBatch)
	}
	want := 2 + n*4
	if traced {
		want += decideTraceLen
	}
	if len(body) != want {
		return ids[:0], tr, fmt.Errorf("%w: decided body %d bytes for %d ops", ErrMalformed, len(body), n)
	}
	ids = ids[:0]
	for off := 2; off < 2+n*4; off += 4 {
		ids = append(ids, int32(binary.LittleEndian.Uint32(body[off:])))
	}
	if traced {
		off := 2 + n*4
		tr.ID = binary.LittleEndian.Uint64(body[off:])
		tr.RecvNs = int64(binary.LittleEndian.Uint64(body[off+8:]))
		tr.AdmitNs = int64(binary.LittleEndian.Uint64(body[off+16:]))
		tr.StartNs = int64(binary.LittleEndian.Uint64(body[off+24:]))
		tr.DoneNs = int64(binary.LittleEndian.Uint64(body[off+32:]))
		if tr.ID == 0 {
			return ids[:0], DecideTrace{}, fmt.Errorf("%w: traced decided with zero trace id", ErrMalformed)
		}
	}
	return ids, tr, nil
}

// DecodeTable parses a Table body under a dims-wide schema into ops, with
// every value row carved from arena (both reuse their backing arrays; the
// returned arena must be kept alive alongside ops).
func DecodeTable(body []byte, dims, maxBatch int, ops []TableOp, arena []int64) ([]TableOp, []int64, error) {
	ops, arena = ops[:0], arena[:0]
	if len(body) < 2 {
		return ops, arena, fmt.Errorf("%w: table body %d bytes", ErrMalformed, len(body))
	}
	n := int(binary.LittleEndian.Uint16(body))
	if n > maxBatch {
		return ops, arena, fmt.Errorf("%w: %d table ops (max %d)", ErrMalformed, n, maxBatch)
	}
	// Sizing pass: validate the exact layout and count values, so the arena
	// grows once and the Vals subslices below never alias a stale array.
	off, vals := 2, 0
	for i := 0; i < n; i++ {
		if off+5 > len(body) {
			return ops, arena, fmt.Errorf("%w: table op %d truncated", ErrMalformed, i)
		}
		kind := body[off]
		off += 5
		switch kind {
		case TableDelete:
		case TableAdd, TableUpdate, TableUpsert:
			if off+dims*8 > len(body) {
				return ops, arena, fmt.Errorf("%w: table op %d values truncated", ErrMalformed, i)
			}
			off += dims * 8
			vals += dims
		default:
			return ops, arena, fmt.Errorf("%w: table op %d has kind 0x%02x", ErrMalformed, i, kind)
		}
	}
	if off != len(body) {
		return ops, arena, fmt.Errorf("%w: %d trailing bytes after %d table ops", ErrMalformed, len(body)-off, n)
	}
	if cap(arena) < vals {
		arena = make([]int64, 0, vals)
	}
	off = 2
	for i := 0; i < n; i++ {
		op := TableOp{Kind: body[off], ID: binary.LittleEndian.Uint32(body[off+1:])}
		off += 5
		if op.Kind != TableDelete {
			start := len(arena)
			for d := 0; d < dims; d++ {
				arena = append(arena, int64(binary.LittleEndian.Uint64(body[off:])))
				off += 8
			}
			op.Vals = arena[start : start+dims]
		}
		ops = append(ops, op)
	}
	return ops, arena, nil
}

// DecodeTableAck parses a TableAck body into statuses (reusing its backing
// array).
func DecodeTableAck(body []byte, maxBatch int, statuses []byte) ([]byte, error) {
	if len(body) < 2 {
		return statuses[:0], fmt.Errorf("%w: tableack body %d bytes", ErrMalformed, len(body))
	}
	n := int(binary.LittleEndian.Uint16(body))
	if n > maxBatch || len(body) != 2+n {
		return statuses[:0], fmt.Errorf("%w: tableack body %d bytes for %d ops", ErrMalformed, len(body), n)
	}
	return append(statuses[:0], body[2:]...), nil
}

// DecodeSwap parses a Swap body (the DSL text) into dst, reusing its backing
// array.
func DecodeSwap(body, dst []byte) ([]byte, error) {
	return append(dst[:0], body...), nil
}

// DecodeSwapAck parses a SwapAck body.
func DecodeSwapAck(body []byte) (status byte, msg string, err error) {
	if len(body) < 1 {
		return 0, "", fmt.Errorf("%w: empty swapack body", ErrMalformed)
	}
	return body[0], string(body[1:]), nil
}

// DecodeErr parses an Err body (the server's error text).
func DecodeErr(body []byte) (string, error) {
	return string(body), nil
}

// DecodeReject parses a Reject body.
func DecodeReject(body []byte) (reason byte, err error) {
	if len(body) != 1 {
		return 0, fmt.Errorf("%w: reject body %d bytes, want 1", ErrMalformed, len(body))
	}
	return body[0], nil
}

// --- frame reading ---

// readBufInit is a FrameReader's starting buffer: room for a burst of small
// frames in one Read. Larger frames grow it.
const readBufInit = 4096

// FrameReader parses frames out of a read buffer it fills from a byte
// stream, calling Read only when no complete frame is buffered: a frame that
// arrived whole costs one Read, a pipelined burst one Read in total. It reads
// ahead, so it owns the stream from construction — one per connection, never
// a throw-away reader per frame, which would swallow the frames behind the
// one it returns. The buffer starts at readBufInit, at least doubles when a
// frame does not fit and never passes 4 + the payload cap.
type FrameReader struct {
	r      io.Reader
	max    int
	buf    []byte // buf[rd:wr] is read and not yet returned
	rd, wr int
}

// NewFrameReader wraps r with the given payload cap (0 selects MaxPayload).
func NewFrameReader(r io.Reader, maxPayload int) *FrameReader {
	if maxPayload <= 0 || maxPayload > MaxPayload {
		maxPayload = MaxPayload
	}
	return &FrameReader{r: r, max: maxPayload, buf: make([]byte, readBufInit)}
}

// Next returns the next frame; body is a view into the reader's buffer,
// valid only until the next call. A declared payload over the cap returns
// ErrFrameTooLarge without allocating or consuming the payload; a clean EOF
// between frames returns io.EOF, an EOF inside a frame io.ErrUnexpectedEOF.
func (fr *FrameReader) Next() (op byte, seq uint32, body []byte, err error) {
	if err = fr.fill(4); err != nil {
		return 0, 0, nil, err
	}
	n, err := fr.frameLen()
	if err == nil {
		err = fr.fill(n)
	}
	if err != nil {
		return 0, 0, nil, err
	}
	f := fr.buf[fr.rd : fr.rd+n]
	fr.rd += n
	return f[4], binary.LittleEndian.Uint32(f[5:]), f[4+headerLen:], nil
}

// frameLen returns the whole length (length word included) of the frame at
// the head of the buffer, or the error Next reports for an illegal length
// word. The length word must be buffered.
func (fr *FrameReader) frameLen() (int, error) {
	plen := int(binary.LittleEndian.Uint32(fr.buf[fr.rd:]))
	if plen < headerLen {
		return 0, fmt.Errorf("%w: payload length %d under header size", ErrMalformed, plen)
	}
	if plen > fr.max {
		return 0, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, plen, fr.max)
	}
	return 4 + plen, nil
}

// ready reports whether Next will return without calling Read: a whole
// frame, or a length word Next rejects, is already buffered.
func (fr *FrameReader) ready() bool {
	if fr.wr-fr.rd < 4 {
		return false
	}
	n, err := fr.frameLen()
	return err != nil || fr.wr-fr.rd >= n
}

// fill reads until n bytes are buffered at rd. Before the first Read it moves
// the partial frame to the front of a buffer that holds n bytes, so every
// Read has the whole remaining buffer to fill; a buffer too small for n at
// least doubles, so rising frame sizes reallocate O(log) times and a frame of
// the working size leaves room to read ahead. An EOF with part of a frame
// buffered is io.ErrUnexpectedEOF.
func (fr *FrameReader) fill(n int) error {
	if fr.wr-fr.rd >= n {
		return nil
	}
	to := fr.buf
	if n > len(to) {
		to = make([]byte, min(max(n, 2*len(to)), 4+fr.max))
	}
	fr.wr = copy(to, fr.buf[fr.rd:fr.wr])
	fr.rd, fr.buf = 0, to
	for fr.wr < n {
		m, err := fr.r.Read(fr.buf[fr.wr:])
		fr.wr += m
		if err != nil && fr.wr < n {
			if err == io.EOF && fr.wr > 0 {
				err = io.ErrUnexpectedEOF
			}
			return err
		}
	}
	return nil
}
