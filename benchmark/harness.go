package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/policy"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/telemetry"
)

// scratchDir holds the private sockets and trace files. It is relative so a
// Unix socket path stays under the 108-byte sun_path limit wherever the
// checkout lives.
var scratchDir = ".bench_build"

var sockSeq atomic.Int64

// engineShards is pinned: the reference box has two cores.
const engineShards = 2

// flightCap is thanosd's default -flight ring capacity.
const flightCap = 256

// harness is an in-process thanosd: an engine and a server on a private
// Unix-domain socket, configured as cmd/thanosd configures them (telemetry
// registry and flight rings attached). Traffic crosses the host's UDS
// loopback, not a real link.
type harness struct {
	eng    *engine.Engine
	srv    *server.Server
	reg    *telemetry.Registry
	sock   string
	served chan error

	clients []*client.Client
	control *client.Client // serve_churn's write connection
	dialed  int

	// Traced runs only: measurement from outside, at public boundaries.
	be   *timedBackend
	wire *wireCounts
}

// newHarness builds the served stack, installs the table through the wire
// like any control client would, and dials the workload's connections.
func newHarness(w *workloadSpec, in *inputs, traced bool) (*harness, error) {
	pol, err := policy.Parse(w.Policy)
	if err != nil {
		return nil, fmt.Errorf("parse policy: %w", err)
	}
	h := &harness{reg: telemetry.NewRegistry(), served: make(chan error, 1)}
	flight := telemetry.NewFlightRecorder()
	h.eng, err = engine.New(engine.Config{
		Shards:    engineShards,
		Capacity:  w.Resources,
		Schema:    policy.Schema{Attrs: []string{"cpu", "mem", "bw"}},
		Policy:    pol,
		Telemetry: h.reg,
		Flight:    flight.Ring("engine", flightCap),
		OnQuarantine: func(shard int, cause error) {
			flight.Trip(fmt.Sprintf("shard %d quarantined: %v", shard, cause))
		},
	})
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	var be server.Backend = h.eng
	if traced {
		h.be = newTimedBackend(h.eng)
		be = h.be
	}
	h.srv, err = server.New(server.Config{
		Backend:   be,
		Telemetry: h.reg,
		Flight:    flight.Ring("server", flightCap),
	})
	if err != nil {
		h.eng.Close()
		return nil, fmt.Errorf("server: %w", err)
	}
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		h.eng.Close()
		return nil, err
	}
	h.sock = filepath.Join(scratchDir, fmt.Sprintf("s%d-%d.sock", os.Getpid(), sockSeq.Add(1)))
	os.Remove(h.sock) // a stale socket from a killed run would fail the bind
	var l net.Listener
	l, err = net.Listen("unix", h.sock)
	if err != nil {
		h.eng.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	if traced {
		h.wire = &wireCounts{}
		l = &countingListener{Listener: l, c: h.wire}
	}
	go func() { h.served <- h.srv.Serve(l) }()

	if err := h.dialAll(w, in, traced); err != nil {
		h.close()
		return nil, err
	}
	return h, nil
}

func (h *harness) dial(seed int64, inflight int, traced bool) (*client.Client, error) {
	cfg := client.Config{Network: "unix", Addr: h.sock, MaxInflight: inflight, Seed: seed}
	if traced {
		cfg.TraceEvery = 1
	}
	c, _, err := client.Dial(cfg)
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", h.sock, err)
	}
	h.dialed++
	return c, nil
}

func (h *harness) dialAll(w *workloadSpec, in *inputs, traced bool) error {
	setup, err := h.dial(-1, 1, false)
	if err != nil {
		return err
	}
	defer setup.Close()
	const chunk = 512
	for base := 0; base < len(in.table); base += chunk {
		end := base + chunk
		if end > len(in.table) {
			end = len(in.table)
		}
		ops := make([]server.TableOp, 0, end-base)
		for id := base; id < end; id++ {
			ops = append(ops, server.TableOp{Kind: server.TableUpsert, ID: uint32(id), Vals: in.table[id]})
		}
		sts, err := setup.Apply(ops, dims)
		if err != nil {
			return fmt.Errorf("install table: %w", err)
		}
		for i, st := range sts {
			if st != server.StatusOK {
				return fmt.Errorf("install resource %d: status %d", base+i, st)
			}
		}
	}
	for c := 0; c < w.Conns; c++ {
		cli, err := h.dial(int64(c), w.Inflight, traced)
		if err != nil {
			return err
		}
		h.clients = append(h.clients, cli)
	}
	if w.Loop == loopChurn {
		if h.control, err = h.dial(int64(w.Conns), 1, false); err != nil {
			return err
		}
	}
	return nil
}

// counter reads one counter or gauge of the served stack's registry.
func (h *harness) counter(name string) int64 {
	switch v := h.reg.Snapshot()[name].(type) {
	case uint64:
		return int64(v)
	case int64:
		return v
	}
	return 0
}

// reconnects is the connections the server accepted beyond the ones this
// harness dialed: each is a client redial.
func (h *harness) reconnects() int64 {
	return h.counter("thanos_server_conns_total") - int64(h.dialed)
}

// close stops clients, server and engine, and waits for each.
func (h *harness) close() {
	for _, c := range h.clients {
		c.Close()
	}
	if h.control != nil {
		h.control.Close()
	}
	h.srv.Close()
	<-h.served
	h.eng.Close()
	os.Remove(h.sock)
}

// durLog keeps durations in a fixed buffer without locks: add claims a slot
// with one atomic increment. It records only while on is set, so warm-up
// calls are left out; read it after every writer has stopped.
type durLog struct {
	on atomic.Bool
	n  atomic.Int64
	v  []int64
}

func newDurLog(capacity int) *durLog { return &durLog{v: make([]int64, capacity)} }

func (d *durLog) add(ns int64) {
	if !d.on.Load() {
		return
	}
	if i := d.n.Add(1) - 1; int(i) < len(d.v) {
		d.v[i] = ns
	}
}

func (d *durLog) values() []int64 {
	n := int(d.n.Load())
	if n > len(d.v) {
		n = len(d.v)
	}
	return d.v[:n]
}

// timedBackend decorates the engine at the server.Backend boundary and times
// every DecideBatch, Upsert and SwapPolicy the server issues.
type timedBackend struct {
	server.Backend
	decide, upsert, swap *durLog
}

func newTimedBackend(be server.Backend) *timedBackend {
	return &timedBackend{
		Backend: be,
		decide:  newDurLog(1 << 20),
		upsert:  newDurLog(1 << 20),
		swap:    newDurLog(1 << 12),
	}
}

func (b *timedBackend) record(on bool) {
	b.decide.on.Store(on)
	b.upsert.on.Store(on)
	b.swap.on.Store(on)
}

func (b *timedBackend) DecideBatch(pkts []engine.Packet) {
	t := time.Now()
	b.Backend.DecideBatch(pkts)
	b.decide.add(int64(time.Since(t)))
}

func (b *timedBackend) Upsert(id int, vals []int64) error {
	t := time.Now()
	err := b.Backend.Upsert(id, vals)
	b.upsert.add(int64(time.Since(t)))
	return err
}

func (b *timedBackend) SwapPolicy(p *policy.Policy) error {
	t := time.Now()
	err := b.Backend.SwapPolicy(p)
	b.swap.add(int64(time.Since(t)))
	return err
}

// wireCounts tallies the server side of every accepted connection.
type wireCounts struct {
	reads, writes, bytes atomic.Int64
}

type wireSnap struct{ reads, writes, bytes int64 }

func (c *wireCounts) snap() wireSnap {
	return wireSnap{c.reads.Load(), c.writes.Load(), c.bytes.Load()}
}

// countingListener wraps the listener handed to server.Serve so every
// connection's reads, writes and bytes are counted from outside the server.
type countingListener struct {
	net.Listener
	c *wireCounts
}

func (l *countingListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: nc, c: l.c}, nil
}

type countingConn struct {
	net.Conn
	c *wireCounts
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.c.reads.Add(1)
	c.c.bytes.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.c.writes.Add(1)
	c.c.bytes.Add(int64(n))
	return n, err
}
