package server

import (
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/policy"
	"repro/internal/telemetry"
)

// Backend is the decision plane the server fronts. *engine.Engine satisfies
// it; tests substitute stubs to park a connection inside a request.
type Backend interface {
	DecideBatch(pkts []engine.Packet)
	Add(id int, vals []int64) error
	Update(id int, vals []int64) error
	Upsert(id int, vals []int64) error
	Delete(id int) error
	SwapPolicy(p *policy.Policy) error
	Schema() policy.Schema
	Capacity() int
	Shards() int
	Policy() *policy.Policy
}

var _ Backend = (*engine.Engine)(nil)

// DefaultMaxConns is the default connection admission limit.
const DefaultMaxConns = 256

// ErrServerClosed is returned by Serve after Close.
var ErrServerClosed = errors.New("server: closed")

// Config configures New.
type Config struct {
	// Backend is the decision engine being served. Required.
	Backend Backend
	// MaxConns caps concurrently served connections; excess connections get
	// an Err frame and are closed. 0 selects DefaultMaxConns.
	MaxConns int
	// Telemetry, when non-nil, registers the server's metrics under this
	// registry. All handles are created here; the serve path is lock-free
	// with respect to telemetry whether or not it is attached.
	Telemetry *telemetry.Registry
	// Flight, when non-nil, receives the server's recent request spans and
	// state transitions (decides, reply encodes, protocol errors, write
	// timeouts, connection churn) for the always-on flight recorder. Records
	// are lock-free and allocation-free; nil disables recording.
	Flight *telemetry.SpanRing
}

// metrics is the server's telemetry handle set; the zero value (all nil)
// disables everything.
type metrics struct {
	connsOpen     *telemetry.Gauge
	connsTotal    *telemetry.Counter
	connsRejected *telemetry.Counter
	framesTotal   *telemetry.Counter
	decisions     *telemetry.Counter
	tableOps      *telemetry.Counter
	swaps         *telemetry.Counter
	writeTimeouts *telemetry.Counter
	inflight      *telemetry.Gauge
	protoErrs     *telemetry.Counter
	tracedReqs    *telemetry.Counter
	batchHist     *telemetry.Histogram
	latencyHist   *telemetry.Histogram
}

func newMetrics(reg *telemetry.Registry) metrics {
	if reg == nil {
		return metrics{}
	}
	// No code path increments this — the server queues nothing, so it
	// rejects nothing. The name is registered for the readers that resolve
	// it (benchmark/).
	reg.NewCounter("thanos_server_rejects_total", "requests answered with a Reject frame (always 0: the server holds no per-connection queue to overflow)")
	return metrics{
		connsOpen:     reg.NewGauge("thanos_server_conns_open", "connections currently served"),
		connsTotal:    reg.NewCounter("thanos_server_conns_total", "connections accepted"),
		connsRejected: reg.NewCounter("thanos_server_conns_rejected_total", "connections refused by the admission limit"),
		framesTotal:   reg.NewCounter("thanos_server_frames_total", "request frames decoded"),
		decisions:     reg.NewCounter("thanos_server_decisions_total", "decisions served over the wire"),
		tableOps:      reg.NewCounter("thanos_server_table_ops_total", "SMBM table ops applied over the wire"),
		swaps:         reg.NewCounter("thanos_server_swaps_total", "policy hot-swaps accepted over the wire"),
		writeTimeouts: reg.NewCounter("thanos_server_write_timeouts_total", "connections closed because a reply write made no progress within the write deadline"),
		inflight:      reg.NewGauge("thanos_server_inflight", "requests executing or replying: at most one per connection"),
		protoErrs:     reg.NewCounter("thanos_server_proto_errors_total", "connections dropped for malformed frames"),
		tracedReqs:    reg.NewCounter("thanos_server_traced_requests_total", "decide requests carrying client trace context"),
		batchHist:     reg.NewHistogram("thanos_server_decide_batch", "decide ops per request frame"),
		latencyHist:   reg.NewHistogram("thanos_server_decide_latency_us", "server-side decide service time in microseconds"),
	}
}

// Server serves the wire protocol over any set of listeners. One Server may
// Serve several listeners (e.g. a TCP address and a Unix socket)
// concurrently.
type Server struct {
	be       Backend
	maxConns int
	m        metrics
	flight   *telemetry.SpanRing
	start    time.Time
	// writeTimeout is the reply write deadline: the writeTimeout constant,
	// held here only so in-package tests can shorten it before Serve.
	writeTimeout time.Duration

	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[*conn]struct{}
	closed    bool
	wg        sync.WaitGroup
}

// New builds a server over cfg.Backend.
func New(cfg Config) (*Server, error) {
	if cfg.Backend == nil {
		return nil, fmt.Errorf("server: nil backend")
	}
	maxConns := cfg.MaxConns
	if maxConns <= 0 {
		maxConns = DefaultMaxConns
	}
	return &Server{
		be:           cfg.Backend,
		maxConns:     maxConns,
		writeTimeout: writeTimeout,
		m:            newMetrics(cfg.Telemetry),
		flight:       cfg.Flight,
		start:        time.Now(),
		listeners:    make(map[net.Listener]struct{}),
		conns:        make(map[*conn]struct{}),
	}, nil
}

// Serve accepts connections on l until Close. It always closes l before
// returning; after Close it returns ErrServerClosed.
func (s *Server) Serve(l net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		l.Close()
		return ErrServerClosed
	}
	s.listeners[l] = struct{}{}
	s.mu.Unlock()
	defer func() {
		l.Close()
		s.mu.Lock()
		delete(s.listeners, l)
		s.mu.Unlock()
	}()
	for {
		nc, err := l.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			s.mu.Unlock()
			if closed {
				return ErrServerClosed
			}
			// Transient accept errors (EMFILE and friends): brief pause,
			// keep serving. Permanent listener errors surface to the caller.
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				time.Sleep(10 * time.Millisecond)
				continue
			}
			return err
		}
		s.admit(nc)
	}
}

// admit applies the connection limit and starts the connection's goroutine.
func (s *Server) admit(nc net.Conn) {
	s.mu.Lock()
	if s.closed || len(s.conns) >= s.maxConns {
		closed := s.closed
		s.mu.Unlock()
		s.m.connsRejected.Inc()
		// Best-effort courtesy frame; the listener-side cap is the actual
		// protection.
		msg := "server full"
		if closed {
			msg = "server closed"
		}
		_ = writeAll(nc, AppendErr(nil, 0, msg))
		nc.Close()
		return
	}
	c := &conn{srv: s, nc: nc}
	s.conns[c] = struct{}{}
	open := len(s.conns)
	s.wg.Add(1)
	s.mu.Unlock()
	s.m.connsOpen.Add(1)
	s.m.connsTotal.Inc()
	s.flight.Event(telemetry.EventConnOpen, 0, nowNs(), int64(open))
	go c.serve()
}

// Close stops all listeners, tells every connection to finish and waits for
// the connection goroutines to exit. A request executing at that moment runs
// to completion and its reply goes out with the others already owed, under
// the write deadline, before the connection closes its socket; requests
// behind it are not run. Idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	for l := range s.listeners {
		l.Close()
	}
	conns := make([]*conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	for _, c := range conns {
		c.stop()
	}
	s.wg.Wait()
}

// removeConn drops c from the serving set (idempotent).
func (s *Server) removeConn(c *conn) {
	s.mu.Lock()
	_, present := s.conns[c]
	delete(s.conns, c)
	open := len(s.conns)
	s.mu.Unlock()
	if present {
		s.m.connsOpen.Add(-1)
		s.flight.Event(telemetry.EventConnClose, 0, nowNs(), int64(open))
	}
}

// helloInfo snapshots the backend identity for a HelloAck.
func (s *Server) helloInfo() HelloInfo {
	return HelloInfo{
		Version:  Version,
		Dims:     uint16(len(s.be.Schema().Attrs)),
		Capacity: uint32(s.be.Capacity()),
		Shards:   uint16(s.be.Shards()),
		Outputs:  uint16(len(s.be.Policy().Outputs)),
	}
}

// Status is the server's introspection snapshot (/debug/thanos). There are
// no per-connection rows: a connection holds no queue, so its whole state is
// "open", and how many are executing right now is the inflight gauge.
type Status struct {
	Version  uint16 `json:"version"`
	Build    string `json:"build"`
	UptimeNs uint64 `json:"uptime_ns"`
	MaxConns int    `json:"max_conns"`
	MaxBatch int    `json:"max_batch"`
	Conns    int    `json:"conns"` // connections currently served
}

// Introspect snapshots the server's identity, limits and open-connection
// count. Control-plane only — it takes the server lock.
func (s *Server) Introspect() Status {
	s.mu.Lock()
	conns := len(s.conns)
	s.mu.Unlock()
	return Status{
		Version:  Version,
		Build:    runtime.Version(),
		UptimeNs: uint64(time.Since(s.start)),
		MaxConns: s.maxConns,
		MaxBatch: MaxBatch,
		Conns:    conns,
	}
}

func writeAll(w net.Conn, b []byte) error {
	_, err := w.Write(b)
	return err
}
