// Package netsim is the packet-level network simulator used for the
// large-scale experiments of §7.2 (Figures 17 and 18): hosts with a
// window-based transport, switches with drop-tail output queues and
// per-port metric tracking, links with configurable rate and propagation
// delay, and policy-driven routing backed by real Thanos filter machinery
// (an SMBM resource table per switch, evaluated with the same filter units
// the hardware pipeline is built from).
//
// The simulator is deterministic: all randomness flows from the
// sim.Scheduler seed.
package netsim

import (
	"fmt"

	"repro/internal/sim"
)

// Config carries network-wide constants.
type Config struct {
	MTU       int     // payload bytes per data packet
	AckBytes  int     // size of ACK packets on the wire
	LinkBps   float64 // link rate, bits per second
	PropDelay sim.Time
	QueuePkts int // output queue capacity in packets
	InitCwnd  float64
	RTO       sim.Time
	// DupAckThreshold is the number of duplicate ACKs that triggers fast
	// retransmit. Per-packet load balancing reorders packets, so those
	// experiments raise it (as DRILL does) to avoid spurious retransmits.
	DupAckThreshold int
	UtilAlpha       float64  // EWMA coefficient for link utilization
	LossAlpha       float64  // EWMA coefficient for link loss rate
	MetricTick      sim.Time // how often switches refresh metric snapshots
}

// DefaultConfig returns datacenter-flavored defaults: 10 Gb/s links, 1.5 kB
// MTU, shallow 100-packet buffers, 1 µs hop propagation, 1 ms RTO.
func DefaultConfig() Config {
	return Config{
		MTU:             1500,
		AckBytes:        64,
		LinkBps:         10e9,
		PropDelay:       1 * sim.Microsecond,
		QueuePkts:       100,
		InitCwnd:        10,
		RTO:             1 * sim.Millisecond,
		DupAckThreshold: 3,
		UtilAlpha:       0.2,
		LossAlpha:       0.2,
		MetricTick:      100 * sim.Microsecond,
	}
}

// Validate sanity-checks the configuration.
func (c Config) Validate() error {
	if c.MTU <= 0 || c.AckBytes <= 0 || c.LinkBps <= 0 || c.QueuePkts <= 0 {
		return fmt.Errorf("netsim: non-positive core parameter")
	}
	if c.InitCwnd < 1 || c.RTO <= 0 || c.MetricTick <= 0 || c.DupAckThreshold < 1 {
		return fmt.Errorf("netsim: non-positive transport parameter")
	}
	if c.UtilAlpha <= 0 || c.UtilAlpha > 1 || c.LossAlpha <= 0 || c.LossAlpha > 1 {
		return fmt.Errorf("netsim: EWMA coefficients must be in (0,1]")
	}
	return nil
}

// Packet is the on-wire unit. Data packets carry Seq; ACKs carry CumAck.
// Hosts reuse the packets they consume, so only a packet's holder may keep it.
type Packet struct {
	FlowID int64
	Src    int // source host id
	Dst    int // destination host id
	Seq    int // data sequence number (packet index within flow)
	CumAck int // cumulative ACK (first missing seq), valid when IsAck
	IsAck  bool
	Bytes  int
	flow   *flow // transport state, shared by the flow's two hosts
}

// Node consumes packets delivered by links.
type Node interface {
	// Receive handles a packet arriving on the node's port with the given
	// local index.
	Receive(pkt *Packet, port int)
}

// Port is one end of a unidirectional-capable duplex link: it owns the
// outgoing drop-tail queue and transmitter for its direction.
type Port struct {
	net   *Network
	owner Node
	index int // port index within owner
	gid   int // network-global port id; keys delivery/txfree event priorities

	peer      *Port
	propDelay sim.Time // one-way propagation latency of this direction

	// A port serializes one packet at a time and a direction of a link is
	// FIFO (constant propagation delay, arrivals ≥ 1 ns apart; see pri.go),
	// so what the two per-hop events act on is state of the port, not of a
	// closure per packet: txDone finishes tx, rxDone takes the head of wire.
	queue  pktFIFO // waiting for the transmitter
	tx     *Packet // being serialized; nil when the transmitter is idle
	wire   pktFIFO // propagating towards this port, in arrival order
	txDone func()  // p.finishTx, built once
	rxDone func()  // p.receive, built once

	down      bool // link fault: transmitter refuses traffic
	sentBytes uint64
	sentPkts  uint64
	recvPkts  uint64 // packets delivered to this port's owner
	dropPkts  uint64
	faultPkts uint64 // packets dropped because the link was down

	// Metric snapshots refreshed by the owner switch.
	utilEWMA float64
	lossEWMA float64
	lastSent uint64
	lastDrop uint64
	lastTot  uint64

	// OnEnqueue/OnDequeue feed event-driven queue tracking (rmt-style).
	OnEnqueue func()
	OnDequeue func()
}

// QueueLen returns the current output-queue occupancy in packets (including
// the packet being serialized).
func (p *Port) QueueLen() int {
	if p.tx != nil {
		return p.queue.n + 1
	}
	return p.queue.n
}

// Drops returns the cumulative packets dropped at this port.
func (p *Port) Drops() uint64 { return p.dropPkts }

// Sent returns the cumulative packets transmitted by this port.
func (p *Port) Sent() uint64 { return p.sentPkts }

// Recvs returns the cumulative packets delivered to this port's owner.
// Every transmitted packet delivers (drops happen before transmission
// starts, and an in-flight packet survives link faults), so at quiescence
// p.Sent() == p.Peer().Recvs() for every connected port — the conservation
// invariant the fault-interleaving tests check.
func (p *Port) Recvs() uint64 { return p.recvPkts }

// Peer returns the other end of the link, or nil if unconnected.
func (p *Port) Peer() *Port { return p.peer }

// FaultDrops returns the packets dropped because the link was down, a
// subset of Drops.
func (p *Port) FaultDrops() uint64 { return p.faultPkts }

// Down reports whether this direction of the link is faulted.
func (p *Port) Down() bool { return p.down }

// SetDown fails (true) or restores (false) this direction of the link. A
// downed transmitter drops every packet handed to it, including whatever was
// queued at the instant of failure — a dead link loses its buffer. The
// packet currently being serialized is already "on the wire" and still
// delivers. Restoring the link resumes normal service; in-flight traffic is
// unaffected throughout.
func (p *Port) SetDown(down bool) {
	if p.down == down {
		return
	}
	p.down = down
	if !down {
		return
	}
	n := uint64(p.queue.n)
	p.dropPkts += n
	p.faultPkts += n
	for p.queue.n > 0 {
		p.queue.pop()
		if p.OnDequeue != nil {
			p.OnDequeue() // keep the event-driven queue tracker consistent
		}
	}
}

// SetLinkDown fails or restores the whole duplex link: this port and its
// peer, both directions.
func (p *Port) SetLinkDown(down bool) {
	p.SetDown(down)
	if p.peer != nil {
		p.peer.SetDown(down)
	}
}

// SentBytes returns the cumulative bytes transmitted.
func (p *Port) SentBytes() uint64 { return p.sentBytes }

// UtilEWMA returns the smoothed utilization in [0,1] as of the last metric
// refresh.
func (p *Port) UtilEWMA() float64 { return p.utilEWMA }

// LossEWMA returns the smoothed loss fraction as of the last metric
// refresh.
func (p *Port) LossEWMA() float64 { return p.lossEWMA }

// Send enqueues a packet for transmission, dropping it if the link is down
// or the queue is full (drop-tail).
func (p *Port) Send(pkt *Packet) {
	if p.down {
		p.dropPkts++
		p.faultPkts++
		return
	}
	if p.QueueLen() >= p.net.cfg.QueuePkts {
		p.dropPkts++
		return
	}
	p.queue.push(pkt)
	if p.OnEnqueue != nil {
		p.OnEnqueue()
	}
	if p.tx == nil {
		p.transmitNext()
	}
}

// transmitNext starts serializing the head of the queue, or idles the
// transmitter if there is none.
func (p *Port) transmitNext() {
	if p.queue.n == 0 {
		p.tx = nil
		return
	}
	pkt := p.queue.pop()
	p.tx = pkt
	if p.OnDequeue != nil {
		p.OnDequeue()
	}
	serialization := sim.Time(float64(pkt.Bytes*8) / p.net.cfg.LinkBps * float64(sim.Second))
	if serialization < 1 {
		serialization = 1
	}
	p.sentBytes += uint64(pkt.Bytes)
	p.sentPkts++
	p.net.Sched.AfterPri(serialization, key(priTxFree, p.gid), p.txDone)
}

// finishTx is the transmitter-free event.
func (p *Port) finishTx() {
	pkt := p.tx
	p.transmitNext() // transmitter free for the next packet
	p.deliver(pkt)   // the packet is on the wire and will arrive
}

// deliver puts a fully-serialized packet on the wire towards the far end,
// due after this direction's propagation delay.
func (p *Port) deliver(pkt *Packet) {
	peer, s := p.peer, p.net.Sched
	peer.wire.push(pkt)
	s.AtPri(s.Now()+p.propDelay, key(priRecv, peer.gid), peer.rxDone)
}

// receive is the delivery event: the head of the wire has arrived.
func (p *Port) receive() {
	p.recvPkts++
	p.owner.Receive(p.wire.pop(), p.index)
}

// pktFIFO is a ring of packets. An output queue that is re-sliced from the
// front walks its backing array forward and re-allocates for ever; the ring
// grows to the deepest backlog it has seen and stays there.
type pktFIFO struct {
	buf     []*Packet // len is a power of two, or zero
	head, n int
}

func (q *pktFIFO) push(pkt *Packet) {
	if q.n == len(q.buf) {
		grown := make([]*Packet, max(8, 2*len(q.buf)))
		for i := 0; i < q.n; i++ {
			grown[i] = q.buf[(q.head+i)&(len(q.buf)-1)]
		}
		q.buf, q.head = grown, 0
	}
	q.buf[(q.head+q.n)&(len(q.buf)-1)] = pkt
	q.n++
}

func (q *pktFIFO) pop() *Packet {
	pkt := q.buf[q.head]
	q.buf[q.head] = nil // release for GC
	q.head = (q.head + 1) & (len(q.buf) - 1)
	q.n--
	return pkt
}

// refreshMetrics updates the EWMA utilization and loss snapshots from the
// deltas since the previous refresh. interval is the refresh period.
func (p *Port) refreshMetrics(interval sim.Time) {
	sentDelta := p.sentBytes - uint64(p.lastSent)
	capBytes := p.net.cfg.LinkBps / 8 * interval.Seconds()
	inst := 0.0
	if capBytes > 0 {
		inst = float64(sentDelta) / capBytes
		if inst > 1 {
			inst = 1
		}
	}
	a := p.net.cfg.UtilAlpha
	p.utilEWMA = (1-a)*p.utilEWMA + a*inst
	p.lastSent = p.sentBytes

	dropDelta := p.dropPkts - p.lastDrop
	pktDelta := p.sentPkts + p.dropPkts - p.lastTot
	instLoss := 0.0
	if pktDelta > 0 {
		instLoss = float64(dropDelta) / float64(pktDelta)
	}
	la := p.net.cfg.LossAlpha
	p.lossEWMA = (1-la)*p.lossEWMA + la*instLoss
	p.lastDrop = p.dropPkts
	p.lastTot = p.sentPkts + p.dropPkts
}

// Network owns the scheduler, hosts, switches and flow bookkeeping.
type Network struct {
	Sched    *sim.Scheduler
	cfg      Config
	Hosts    []*Host
	Switches []*Switch

	nextGID    int // next network-global port id
	nextFlowID int64
	active     int
	fcts       []FlowRecord
}

// FlowRecord is the outcome of one completed flow.
type FlowRecord struct {
	FlowID   int64
	Src, Dst int
	Bytes    int64
	Start    sim.Time
	End      sim.Time
}

// FCT returns the flow completion time.
func (r FlowRecord) FCT() sim.Time { return r.End - r.Start }

// New creates an empty network with the given seed and configuration.
func New(seed int64, cfg Config) (*Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Network{Sched: sim.New(seed), cfg: cfg}, nil
}

// Config returns the network configuration.
func (n *Network) Config() Config { return n.cfg }

// AddHost appends a host and returns it; host ids are dense from 0.
func (n *Network) AddHost() *Host {
	h := &Host{net: n, id: len(n.Hosts)}
	n.Hosts = append(n.Hosts, h)
	return h
}

// AddSwitch appends a switch with the given number of ports.
func (n *Network) AddSwitch(ports int) *Switch {
	s := newSwitch(n, len(n.Switches), ports)
	n.Switches = append(n.Switches, s)
	return s
}

// newPort allocates a port with the next global id.
func (n *Network) newPort(owner Node, index int) *Port {
	p := &Port{net: n, owner: owner, index: index, gid: n.nextGID}
	p.txDone, p.rxDone = p.finishTx, p.receive
	n.nextGID++
	return p
}

// Connect wires host h's NIC to switch sw port swPort (full duplex).
func (n *Network) Connect(h *Host, sw *Switch, swPort int) {
	up := n.newPort(h, 0)
	down := sw.port(swPort)
	up.peer, down.peer = down, up
	up.propDelay, down.propDelay = n.cfg.PropDelay, n.cfg.PropDelay
	h.nic = up
}

// ConnectSwitches wires sw1 port p1 to sw2 port p2 (full duplex).
func (n *Network) ConnectSwitches(sw1 *Switch, p1 int, sw2 *Switch, p2 int) {
	a, b := sw1.port(p1), sw2.port(p2)
	a.peer, b.peer = b, a
	a.propDelay, b.propDelay = n.cfg.PropDelay, n.cfg.PropDelay
}

// SetLinkPropDelay overrides the propagation delay of the duplex link at
// the given port (both directions). Topology builders use it to model
// longer cross-pod fibers. The link must be idle: a shorter delay would let
// a later packet overtake one already on the wire, and a direction of a link
// is FIFO.
func (n *Network) SetLinkPropDelay(p *Port, d sim.Time) {
	if d < 1 {
		panic(fmt.Sprintf("netsim: propagation delay %v < 1ns", d))
	}
	if p.wire.n > 0 || (p.peer != nil && p.peer.wire.n > 0) {
		panic("netsim: SetLinkPropDelay with packets on the wire")
	}
	p.propDelay = d
	if p.peer != nil {
		p.peer.propDelay = d
	}
}

// StartFlow schedules a new flow of the given size at time at; the FCT is
// recorded when the final byte is cumulatively acknowledged. It validates
// its arguments at the API boundary — host ids in range, src ≠ dst, bytes
// ≥ 1, and a start time not in the past — and returns a descriptive error
// instead of letting a bad start time panic deep inside the event kernel.
func (n *Network) StartFlow(src, dst int, bytes int64, at sim.Time) (int64, error) {
	if src < 0 || src >= len(n.Hosts) || dst < 0 || dst >= len(n.Hosts) {
		return 0, fmt.Errorf("netsim: StartFlow host out of range: src %d, dst %d with %d hosts", src, dst, len(n.Hosts))
	}
	if src == dst {
		return 0, fmt.Errorf("netsim: StartFlow src == dst (%d): flow to self", src)
	}
	if bytes < 1 {
		return 0, fmt.Errorf("netsim: StartFlow flow size %d bytes < 1", bytes)
	}
	h := n.Hosts[src]
	if now := n.Sched.Now(); at < now {
		return 0, fmt.Errorf("netsim: StartFlow start time %v is in the past (now %v)", at, now)
	}
	n.nextFlowID++
	id := n.nextFlowID
	n.active++
	n.Sched.AtPri(at, key(priStart, int(id)), func() {
		h.startSender(id, dst, bytes, at)
	})
	return id, nil
}

// ActiveFlows returns the number of flows started but not yet completed.
func (n *Network) ActiveFlows() int { return n.active }

// Records returns the completed-flow records in completion-event order.
func (n *Network) Records() []FlowRecord { return n.fcts }

// flowDone records a completed flow.
func (n *Network) flowDone(rec FlowRecord) {
	n.active--
	n.fcts = append(n.fcts, rec)
}

// StartMetricTicks begins the periodic per-switch metric refresh loop
// (§7.2.3: "each switch periodically generates the queuing, loss rate, and
// utilization metrics for its links"). Each tick carries a switch-id-keyed
// priority, so refresh order at an instant is switch-id order.
func (n *Network) StartMetricTicks() {
	for _, sw := range n.Switches {
		sw.startMetricTick()
	}
}
