package server

import (
	"errors"
	"io"
	"net"
	"os"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/policy"
	"repro/internal/smbm"
	"repro/internal/telemetry"
)

// writeTimeout bounds a stalled reply write. A peer that stops reading fills
// the socket buffers and would otherwise pin the connection's goroutine and
// its MaxConns slot forever; a write still blocked when the deadline passes
// closes the connection and is counted. The deadline is pushed out only once
// half of it has run down, so a stalled write is cut after between
// writeTimeout/2 and writeTimeout.
const writeTimeout = 5 * time.Second

// request is the frame a connection is working on, with its decoded payload.
// A connection owns exactly one and decodes every frame into it, so the
// steady state reuses slices that have already grown to the working batch
// size — no per-frame allocation.
type request struct {
	op    byte
	seq   uint32
	pkts  []engine.Packet // decide
	ops   []TableOp       // table
	arena []int64         // backing values for ops
	dsl   []byte          // swap

	// Trace context for a traced Decide. traceID 0 means untraced and
	// recvNs is never taken, keeping the common path free of clock reads.
	traceID uint64
	recvNs  int64 // frame decoded off the socket
}

// outCap is the size past which coalesced replies are written even though
// more requests are buffered, bounding c.out at outCap plus one reply frame.
const outCap = 64 << 10

// conn is one served connection, run to completion by one goroutine: read a
// frame, decode it, execute it against the backend, append the reply, repeat;
// replies go out in one write once the frame reader has no complete frame
// left, so a pipelined burst costs one Read and one Write. No request is
// queued inside the server — while one executes, the peer's further frames
// wait in the read buffer and the socket buffer, and transport flow control
// plus the client's inflight window bound what can pile up there.
type conn struct {
	srv *Server
	nc  net.Conn
	req request
	out []byte // replies not yet written; never held across a blocking Read

	armed  time.Time   // when the write deadline was last pushed out
	closed atomic.Bool // stop was called: finish before the next frame
}

// stop is Server.Close's one signal to the connection: finish. The goroutine
// sees it before the next frame — the expired read deadline wakes a blocked
// Read — writes the replies it owes and closes the socket itself, so every
// request that executed is answered unless its write fails.
func (c *conn) stop() {
	c.closed.Store(true)
	c.nc.SetReadDeadline(time.Unix(1, 0))
}

// serve is the connection's goroutine, and the only one that writes to or
// closes the socket. Every request is answered, in arrival order, or the
// connection is visibly dead — those are the only outcomes.
func (c *conn) serve() {
	defer c.srv.wg.Done()
	defer c.srv.removeConn(c)
	defer c.nc.Close()
	fr := NewFrameReader(c.nc, MaxPayload)
	req := &c.req
	for !c.closed.Load() {
		// No complete frame is buffered, so Next is about to block in Read:
		// everything answered so far goes out first, and a peer that waits
		// for a reply before it sends more always gets it.
		if !fr.ready() && !c.flush() {
			return
		}
		var body []byte
		var err error
		req.op, req.seq, body, err = fr.Next()
		if err != nil {
			if !errors.Is(err, io.EOF) && !c.closed.Load() {
				c.srv.m.protoErrs.Inc()
				c.out = AppendErr(c.out, 0, err.Error())
				c.flush()
			}
			return
		}
		c.srv.m.framesTotal.Inc()
		if err := c.decode(body); err != nil {
			c.srv.m.protoErrs.Inc()
			c.srv.flight.Event(telemetry.EventProtoErr, 0, nowNs(), int64(req.seq))
			c.out = AppendErr(c.out, req.seq, err.Error())
			c.flush()
			return
		}
		c.srv.m.inflight.Add(1)
		ok := c.execute()
		c.srv.m.inflight.Add(-1)
		if !ok {
			return
		}
	}
	c.flush() // stopped mid-burst: the replies owed so far still go out
}

// decode parses body into the connection's request according to its opcode.
// An error is a protocol error: it is sent to the peer and ends the connection.
func (c *conn) decode(body []byte) (err error) {
	req := &c.req
	req.traceID = 0
	switch req.op {
	case OpDecide:
		req.pkts, req.traceID, err = DecodeDecide(body, MaxBatch, req.pkts)
		if req.traceID != 0 {
			req.recvNs = nowNs()
			c.srv.m.tracedReqs.Inc()
		}
	case OpTable:
		dims := len(c.srv.be.Schema().Attrs)
		req.ops, req.arena, err = DecodeTable(body, dims, MaxBatch, req.ops, req.arena)
	case OpSwap:
		req.dsl, err = DecodeSwap(body, req.dsl)
	case OpHello:
		_, _, err = DecodeHello(body)
	default:
		err = errors.New("unknown opcode")
	}
	return err
}

// execute runs the decoded request against the backend and appends its reply
// to c.out. It reports whether the connection is still usable.
func (c *conn) execute() bool {
	req, m := &c.req, &c.srv.m
	switch req.op {
	case OpDecide:
		start := time.Now()
		c.srv.be.DecideBatch(req.pkts)
		done := time.Now()
		m.decisions.Add(uint64(len(req.pkts)))
		m.batchHist.Observe(uint64(len(req.pkts)))
		m.latencyHist.ObserveExemplar(uint64(done.Sub(start).Microseconds()), req.traceID)
		if req.traceID == 0 {
			return c.reply(AppendDecided(c.out, req.seq, req.pkts))
		}
		// Traced: echo the phase stamps in the reply's DecideTrace trailer
		// and record the spans — two more clock conversions, one more clock
		// read and two lock-free ring records, all allocation-free. Nothing
		// waits between decode and execution, so Admit and Start coincide.
		// The encode span ends when the reply is in c.out, before its write.
		startNs, doneNs := start.UnixNano(), done.UnixNano()
		tr := DecideTrace{ID: req.traceID, RecvNs: req.recvNs, AdmitNs: startNs, StartNs: startNs, DoneNs: doneNs}
		ok := c.reply(AppendDecidedTrace(c.out, req.seq, req.pkts, tr))
		c.srv.flight.Record(telemetry.SpanDecide, req.traceID, startNs, doneNs, int64(len(req.pkts)))
		c.srv.flight.Record(telemetry.SpanEncode, req.traceID, doneNs, nowNs(), 0)
		return ok
	case OpTable:
		// Statuses are written into the frame as the ops execute: reserve
		// the header and count, then append one status byte per op.
		buf := appendHeader(c.out, OpTableAck, req.seq, 2+len(req.ops))
		buf = append(buf, byte(len(req.ops)), byte(len(req.ops)>>8))
		for i := range req.ops {
			buf = append(buf, c.applyTableOp(&req.ops[i]))
		}
		m.tableOps.Add(uint64(len(req.ops)))
		return c.reply(buf)
	case OpSwap:
		status, msg := byte(StatusOK), ""
		pol, err := policy.Parse(string(req.dsl))
		if err == nil {
			err = c.srv.be.SwapPolicy(pol)
		}
		if err != nil {
			status, msg = StatusInvalid, err.Error()
		} else {
			m.swaps.Inc()
		}
		return c.reply(AppendSwapAck(c.out, req.seq, status, msg))
	case OpHello:
		return c.reply(AppendHelloAck(c.out, req.seq, c.srv.helloInfo()))
	}
	return true // unreachable: decode admits only the opcodes above
}

// nowNs is the server's phase-stamp clock.
func nowNs() int64 { return time.Now().UnixNano() }

// applyTableOp runs one SMBM op and maps its result to a wire status.
// Replica divergence maps to StatusOK: the write landed on the
// authoritative table and on every replica, the diverged one by the
// engine's inline rebuild, invisible to the protocol contract.
func (c *conn) applyTableOp(op *TableOp) byte {
	var err error
	id := int(op.ID)
	switch op.Kind {
	case TableAdd:
		err = c.srv.be.Add(id, op.Vals)
	case TableUpdate:
		err = c.srv.be.Update(id, op.Vals)
	case TableUpsert:
		err = c.srv.be.Upsert(id, op.Vals)
	case TableDelete:
		err = c.srv.be.Delete(id)
	}
	switch {
	case err == nil:
		return StatusOK
	case errors.Is(err, smbm.ErrReplicaDivergence):
		return StatusOK
	case errors.Is(err, engine.ErrClosed):
		return StatusClosed
	default:
		return StatusInvalid
	}
}

// reply takes c.out extended by one reply frame. The frame waits there for
// serve's flush before the next blocking Read, unless the buffer has passed
// outCap. On false the connection is dead.
func (c *conn) reply(out []byte) bool {
	c.out = out
	return len(out) < outCap || c.flush()
}

// flush writes the coalesced replies under the write deadline, keeping
// c.out's storage as the connection's scratch. It reports whether they went
// out whole; on false the connection is dead and the caller must stop serving
// it.
//
// Re-arming the deadline on every write is a runtime timer update that can
// wake an idle scheduler thread each time: measured at 0.5 µs of a 10.5 µs
// closed-loop round trip, so the deadline moves at most twice per timeout.
func (c *conn) flush() bool {
	if len(c.out) == 0 {
		return true
	}
	buf := c.out
	c.out = buf[:0]
	var err error
	if now := time.Now(); now.Sub(c.armed) > c.srv.writeTimeout/2 {
		c.armed = now
		err = c.nc.SetWriteDeadline(now.Add(c.srv.writeTimeout))
	}
	if err == nil {
		_, err = c.nc.Write(buf)
	}
	if errors.Is(err, os.ErrDeadlineExceeded) {
		c.srv.m.writeTimeouts.Inc()
		c.srv.flight.Event(telemetry.EventWriteTimeout, 0, nowNs(), int64(c.req.seq))
	}
	return err == nil
}
