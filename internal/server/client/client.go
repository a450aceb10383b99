// Package client is the Go client for the thanos decision-plane wire
// protocol. One Client owns one connection and pipelines requests over it:
// every request carries a client-assigned sequence number, a single reader
// goroutine matches replies back by that number (through one buffered
// server.FrameReader per connection, so replies that arrive together cost one
// read), and a bounded inflight
// window is the admission control: the server queues nothing, so the window
// bounds what waits in the socket. Concurrent callers pipeline naturally —
// each blocks only on its own reply, not on the connection.
//
// Reconnection is explicit and deterministic: when the connection dies, every
// pending call fails with ErrConnReset and the next call redials under a
// seed-driven fault.Backoff schedule, so reconnect storms in tests replay
// exactly.
package client

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/server"
	"repro/internal/telemetry"
)

// ErrRejected reports a server Reject frame: the request was not executed.
// This repo's server never sends one; the protocol defines it.
var ErrRejected = errors.New("client: request rejected (server busy)")

// ErrConnReset reports that the connection died while the request was in
// flight; the request may or may not have executed.
var ErrConnReset = errors.New("client: connection reset")

// ErrClosed reports a call after Close.
var ErrClosed = errors.New("client: closed")

// ErrRemote wraps an Err frame's message from the server.
var ErrRemote = errors.New("client: server error")

// DefaultMaxInflight is the default pipelining window.
const DefaultMaxInflight = 32

// The reconnect schedule: a call that finds no live connection redials up to
// MaxDialAttempts times, sleeping between failed attempts by a fault.Backoff
// from BackoffBase doubling to BackoffMax, jittered by Config.Seed.
const (
	BackoffBase     = time.Millisecond
	BackoffMax      = 500 * time.Millisecond
	MaxDialAttempts = 8
)

// Config configures Dial.
type Config struct {
	// Network and Addr name the server ("tcp", "host:port" or "unix",
	// "/path/to.sock").
	Network, Addr string
	// MaxInflight bounds requests awaiting replies; further calls block.
	// 0 selects DefaultMaxInflight.
	MaxInflight int
	// DialTimeout bounds each connection attempt. 0 means 5s.
	DialTimeout time.Duration
	// Seed drives reconnect jitter; the same seed replays the same schedule.
	Seed int64
	// TraceEvery samples 1 in every TraceEvery Decide calls for end-to-end
	// tracing: the sampled call's frame carries a deterministic trace ID
	// (derived from Seed and the call sequence) and the server echoes its
	// phase stamps in the reply. 0 disables sampling.
	TraceEvery int
	// Flight, when non-nil, receives the client-side spans of traced calls
	// (enqueue, wire, reply) and reconnect events for the flight recorder.
	Flight *telemetry.SpanRing
}

// Client is a pipelined protocol client. Safe for concurrent use.
type Client struct {
	cfg Config
	sem chan struct{} // inflight window

	// traceSeq counts Decide calls for the deterministic 1-in-N sampling
	// decision.
	traceSeq atomic.Uint64

	// wmu serializes frame writes onto the socket and guards wbuf, the one
	// scratch every request frame is built in. It is dedicated to I/O and
	// never held together with mu: state bookkeeping happens under mu, then
	// the frame is built and written under wmu only, so a stalled socket
	// never blocks the demux or other callers' state transitions.
	wmu  sync.Mutex
	wbuf []byte

	rwg sync.WaitGroup // joins reader goroutines across reconnects

	mu      sync.Mutex // guards everything below
	nc      net.Conn
	seq     uint32
	gen     int // connection generation; >1 means a reconnect happened
	pending map[uint32]chan reply
	bo      *fault.Backoff
	closed  bool
}

type reply struct {
	op   byte
	body []byte
	err  error
}

// Dial connects and performs the Hello handshake.
func Dial(cfg Config) (*Client, *server.HelloInfo, error) {
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = DefaultMaxInflight
	}
	if cfg.DialTimeout <= 0 {
		cfg.DialTimeout = 5 * time.Second
	}
	c := &Client{
		cfg: cfg,
		sem: make(chan struct{}, cfg.MaxInflight),
		bo:  fault.NewBackoff(BackoffBase, BackoffMax, cfg.Seed),
	}
	c.mu.Lock()
	err := c.connectLocked()
	c.mu.Unlock()
	if err != nil {
		return nil, nil, err
	}
	info, err := c.Hello()
	if err != nil {
		c.Close()
		return nil, nil, err
	}
	return c, &info, nil
}

// connectLocked dials one attempt and installs the connection. mu held.
func (c *Client) connectLocked() error {
	nc, err := net.DialTimeout(c.cfg.Network, c.cfg.Addr, c.cfg.DialTimeout)
	if err != nil {
		return err
	}
	c.nc = nc
	c.pending = make(map[uint32]chan reply)
	c.bo.Reset()
	c.gen++
	if c.gen > 1 {
		// Lock-free atomics only — safe under mu.
		c.cfg.Flight.Event(telemetry.EventReconnect, 0, time.Now().UnixNano(), int64(c.gen))
	}
	c.rwg.Add(1)
	go c.readLoop(nc)
	return nil
}

// readLoop demultiplexes replies for one connection generation. It exits when
// that connection dies, failing everything pending on it; Close joins it
// through rwg.
func (c *Client) readLoop(nc net.Conn) {
	defer c.rwg.Done()
	fr := server.NewFrameReader(nc, server.MaxPayload)
	for {
		op, seq, body, err := fr.Next()
		if err != nil {
			c.teardown(nc, err)
			return
		}
		// body is a view into the reader's buffer, overwritten by later
		// frames; hand each waiter its own copy.
		r := reply{op: op, body: append([]byte(nil), body...)}
		c.mu.Lock()
		if c.nc != nc {
			c.mu.Unlock()
			return
		}
		ch, ok := c.pending[seq]
		if ok {
			delete(c.pending, seq)
		}
		c.mu.Unlock()
		if ok {
			ch <- r
		}
	}
}

// teardown fails all requests pending on nc and marks the connection dead.
func (c *Client) teardown(nc net.Conn, cause error) {
	c.mu.Lock()
	if c.nc != nc {
		c.mu.Unlock()
		return
	}
	pend := c.pending
	c.nc, c.pending = nil, nil
	c.mu.Unlock()
	nc.Close()
	for _, ch := range pend {
		ch <- reply{err: fmt.Errorf("%w: %v", ErrConnReset, cause)}
	}
}

// roundTrip sends one frame built by build and waits for its reply. It
// redials (with deterministic backoff) when no connection is live, but never
// resends a request that was already written — the caller owns that retry
// decision, because table ops are not idempotent.
func (c *Client) roundTrip(build func(dst []byte, seq uint32) []byte) (reply, error) {
	return c.roundTripTrace(build, nil)
}

// roundTripTrace is roundTrip plus client-side phase stamps for a traced
// call: when ti is non-nil, it records entry (enqueue), post-write (send)
// and reply-received times on the client clock.
func (c *Client) roundTripTrace(build func(dst []byte, seq uint32) []byte, ti *TraceInfo) (reply, error) {
	if ti != nil {
		ti.EnqueueNs = time.Now().UnixNano()
	}
	c.sem <- struct{}{}
	defer func() { <-c.sem }()

	ch := make(chan reply, 1)
	var dialErr error
	for attempt := 0; ; attempt++ {
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			return reply{}, ErrClosed
		}
		if c.nc == nil {
			if attempt >= MaxDialAttempts {
				c.mu.Unlock()
				return reply{}, fmt.Errorf("client: redial failed after %d attempts: %w", attempt, dialErr)
			}
			dialErr = c.connectLocked()
			if dialErr != nil {
				d := c.bo.Next()
				c.mu.Unlock()
				time.Sleep(d)
				continue
			}
		}
		nc := c.nc
		c.seq++
		seq := c.seq
		c.pending[seq] = ch
		c.mu.Unlock()

		// The frame is built and written under the dedicated write lock
		// only: holding mu across Write would let one stalled socket block
		// the demux and every other caller's state transitions.
		c.wmu.Lock()
		c.wbuf = build(c.wbuf[:0], seq)
		_, werr := nc.Write(c.wbuf)
		c.wmu.Unlock()
		if ti != nil {
			ti.SendNs = time.Now().UnixNano()
		}
		if werr != nil {
			c.mu.Lock()
			if c.pending != nil {
				delete(c.pending, seq)
			}
			c.mu.Unlock()
			c.teardown(nc, werr)
			return reply{}, fmt.Errorf("%w: %v", ErrConnReset, werr)
		}

		r := <-ch
		if ti != nil {
			ti.ReplyNs = time.Now().UnixNano()
		}
		if r.err != nil {
			return reply{}, r.err
		}
		if r.op == server.OpReject {
			return reply{}, ErrRejected
		}
		if r.op == server.OpErr {
			msg, _ := server.DecodeErr(r.body)
			return reply{}, fmt.Errorf("%w: %s", ErrRemote, msg)
		}
		return r, nil
	}
}

// Hello performs the version/schema handshake.
func (c *Client) Hello() (server.HelloInfo, error) {
	r, err := c.roundTrip(func(dst []byte, seq uint32) []byte {
		return server.AppendHello(dst, seq, 0)
	})
	if err != nil {
		return server.HelloInfo{}, err
	}
	if r.op != server.OpHelloAck {
		return server.HelloInfo{}, fmt.Errorf("%w: op 0x%02x to hello", ErrRemote, r.op)
	}
	return server.DecodeHelloAck(r.body)
}

// TraceInfo is one traced Decide call's cross-layer timeline: the trace
// ID, the client-side phase stamps (this process's clock) and the server's
// echoed phase stamps (the server's clock). ID is zero when the call was
// not sampled — the other fields are then meaningless.
type TraceInfo struct {
	ID        uint64
	EnqueueNs int64 // call entered the client (before the inflight window)
	SendNs    int64 // frame written to the socket
	ReplyNs   int64 // reply received and decoded
	Server    server.DecideTrace
}

// splitmix64 is the trace-ID mixer: a full-period permutation of the call
// sequence, so IDs are deterministic per (seed, call index), well spread,
// and never collide within a run.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// nextTraceID makes the 1-in-N sampling decision for one Decide call and
// returns the call's trace ID (0 = not sampled). Deterministic for a given
// Config.Seed and call order.
func (c *Client) nextTraceID() uint64 {
	if c.cfg.TraceEvery <= 0 {
		return 0
	}
	n := c.traceSeq.Add(1)
	if n%uint64(c.cfg.TraceEvery) != 0 {
		return 0
	}
	id := splitmix64(uint64(c.cfg.Seed) ^ n)
	if id == 0 {
		id = 1
	}
	return id
}

// Decide runs one batched decision round: keys[i] is the flow key, outs[i]
// the policy output index. ids is reused when large enough; id -1 means no
// resource was selected. When trace sampling is configured the sampled
// calls are traced invisibly (the timeline goes to the flight ring); use
// DecideTraced to also receive the timeline.
func (c *Client) Decide(keys []uint64, outs []uint16, ids []int32) ([]int32, error) {
	return c.DecideTraced(keys, outs, ids, nil)
}

// DecideTraced is Decide plus trace capture: when the call is sampled (per
// Config.TraceEvery) and ti is non-nil, ti receives the stitched timeline.
// An unsampled call leaves ti.ID zero. The sampled path allocates only
// what Decide already allocates; client spans are additionally recorded
// into Config.Flight when set.
func (c *Client) DecideTraced(keys []uint64, outs []uint16, ids []int32, ti *TraceInfo) ([]int32, error) {
	if len(keys) != len(outs) {
		return ids[:0], fmt.Errorf("client: %d keys, %d outs", len(keys), len(outs))
	}
	traceID := c.nextTraceID()
	if traceID == 0 {
		if ti != nil {
			ti.ID = 0
		}
		r, err := c.roundTrip(func(dst []byte, seq uint32) []byte {
			return server.AppendDecide(dst, seq, keys, outs)
		})
		return c.finishDecide(r, err, ids, nil)
	}
	var local TraceInfo
	if ti == nil {
		ti = &local
	}
	ti.ID = traceID
	r, err := c.roundTripTrace(func(dst []byte, seq uint32) []byte {
		return server.AppendDecideTrace(dst, seq, keys, outs, traceID)
	}, ti)
	return c.finishDecide(r, err, ids, ti)
}

// finishDecide validates and decodes a Decided reply and, for a traced
// call, completes the timeline and records the client-side spans.
func (c *Client) finishDecide(r reply, err error, ids []int32, ti *TraceInfo) ([]int32, error) {
	if err != nil {
		return ids[:0], err
	}
	if r.op != server.OpDecided {
		return ids[:0], fmt.Errorf("%w: op 0x%02x to decide", ErrRemote, r.op)
	}
	ids, tr, err := server.DecodeDecided(r.body, server.MaxBatch, ids)
	if err != nil || ti == nil {
		return ids, err
	}
	ti.Server = tr
	flight := c.cfg.Flight
	flight.Record(telemetry.SpanEnqueue, ti.ID, ti.EnqueueNs, ti.SendNs, 0)
	// Wire and reply spans mix the two clocks; on one host (UDS, loopback)
	// they share a kernel clock, across hosts they carry the skew.
	flight.Record(telemetry.SpanWire, ti.ID, ti.SendNs, tr.RecvNs, 0)
	flight.Record(telemetry.SpanReply, ti.ID, tr.DoneNs, ti.ReplyNs, 0)
	return ids, nil
}

// Apply runs a batch of SMBM table ops and returns one status byte per op.
func (c *Client) Apply(ops []server.TableOp, dims int) ([]byte, error) {
	// Validate the encoding up front so roundTrip's builder cannot fail.
	if _, err := server.AppendTable(nil, 0, ops, dims); err != nil {
		return nil, err
	}
	r, err := c.roundTrip(func(dst []byte, seq uint32) []byte {
		frame, _ := server.AppendTable(dst, seq, ops, dims)
		return frame
	})
	if err != nil {
		return nil, err
	}
	if r.op != server.OpTableAck {
		return nil, fmt.Errorf("%w: op 0x%02x to table", ErrRemote, r.op)
	}
	return server.DecodeTableAck(r.body, server.MaxBatch, nil)
}

// SwapPolicy hot-swaps the served policy to the given DSL text.
func (c *Client) SwapPolicy(dsl string) error {
	r, err := c.roundTrip(func(dst []byte, seq uint32) []byte {
		return server.AppendSwap(dst, seq, dsl)
	})
	if err != nil {
		return err
	}
	if r.op != server.OpSwapAck {
		return fmt.Errorf("%w: op 0x%02x to swap", ErrRemote, r.op)
	}
	status, msg, err := server.DecodeSwapAck(r.body)
	if err != nil {
		return err
	}
	if status != server.StatusOK {
		return fmt.Errorf("%w: swap rejected: %s", ErrRemote, msg)
	}
	return nil
}

// Ping round-trips a liveness frame and returns the server's identity
// (uptime + build).
func (c *Client) Ping() (server.PongInfo, error) {
	r, err := c.roundTrip(func(dst []byte, seq uint32) []byte {
		return server.AppendPing(dst, seq)
	})
	if err != nil {
		return server.PongInfo{}, err
	}
	if r.op != server.OpPong {
		return server.PongInfo{}, fmt.Errorf("%w: op 0x%02x to ping", ErrRemote, r.op)
	}
	return server.DecodePong(r.body)
}

// Close tears the connection down; all pending calls fail with ErrConnReset
// and future calls fail with ErrClosed.
func (c *Client) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	nc := c.nc
	c.mu.Unlock()
	if nc != nil {
		c.teardown(nc, ErrClosed)
	}
	// Join the reader: closed is set, so no call can redial and spawn a new
	// generation, and teardown closed the socket, so the current reader's
	// blocking Next fails promptly.
	c.rwg.Wait()
}
