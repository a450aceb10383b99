package netsim

import (
	"testing"

	"repro/internal/sim"
)

// sink is a Node that hands every packet it receives to fn.
type sink struct{ fn func(*Packet) }

func (s *sink) Receive(pkt *Packet, _ int) { s.fn(pkt) }

// ackLink wires two free-standing ports a → b over one link with the given
// propagation delay; b's owner calls recv for every arrival.
func ackLink(t *testing.T, prop sim.Time, recv func(*Packet)) (n *Network, a, b *Port) {
	t.Helper()
	n, err := New(1, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	a, b = n.newPort(&sink{func(*Packet) {}}, 0), n.newPort(&sink{recv}, 0)
	a.peer, b.peer = b, a
	n.SetLinkPropDelay(a, prop)
	return n, a, b
}

func sendAcks(n *Network, p *Port, from, to int) {
	for seq := from; seq < to; seq++ {
		p.Send(&Packet{FlowID: 1, CumAck: seq, IsAck: true, Bytes: n.cfg.AckBytes})
	}
}

// TestAckBurstArrivesInOrder: ACKs serialize in 51 ns, so a 2 µs link holds
// dozens at once — the case where the delivery event has nothing but the
// wire's FIFO order to tell it which packet has arrived.
func TestAckBurstArrivesInOrder(t *testing.T) {
	const burst = 60
	var n *Network
	var b *Port
	var got []int
	var at []sim.Time
	deepest := 0
	n, a, b := ackLink(t, 2*sim.Microsecond, func(pkt *Packet) {
		got, at = append(got, pkt.CumAck), append(at, n.Sched.Now())
		deepest = max(deepest, b.wire.n+1)
	})
	sendAcks(n, a, 0, burst)
	n.Sched.Run()
	if len(got) != burst || a.Sent() != burst || b.Recvs() != burst {
		t.Fatalf("delivered %d of %d (sent %d, recvs %d)", len(got), burst, a.Sent(), b.Recvs())
	}
	for i := range got {
		// Packet i finishes serializing at 51·(i+1) ns and propagates 2 µs.
		if want := sim.Time(51*(i+1)) + 2*sim.Microsecond; got[i] != i || at[i] != want {
			t.Fatalf("arrival %d: ack %d at %v, want ack %d at %v", i, got[i], at[i], i, want)
		}
	}
	if deepest < 20 {
		t.Fatalf("at most %d ACKs were in flight at once; the test needs ≥ 20", deepest)
	}
}

// TestLinkDownDeliversWire: a link that fails loses its queue, but what is
// already on the wire (and the packet being serialized) still arrives, in
// order, and the conservation invariant holds at quiescence.
func TestLinkDownDeliversWire(t *testing.T) {
	const burst = 30
	var got []int
	n, a, b := ackLink(t, 2*sim.Microsecond, func(pkt *Packet) { got = append(got, pkt.CumAck) })
	sendAcks(n, a, 0, burst)
	n.Sched.RunUntil(sim.Microsecond) // 19 serialized and in flight, none arrived
	onWire := b.wire.n
	if onWire < 10 || len(got) != 0 {
		t.Fatalf("before the fault: %d on the wire, %d arrived", onWire, len(got))
	}
	a.SetLinkDown(true)
	n.Sched.Run()
	sent := int(a.Sent())
	if sent != onWire+1 { // plus the one being serialized when the link failed
		t.Fatalf("sent %d with %d on the wire at the fault, want one more", sent, onWire)
	}
	if a.Sent() != a.Peer().Recvs() || len(got) != sent {
		t.Fatalf("Sent() = %d, Peer().Recvs() = %d, arrived %d", a.Sent(), a.Peer().Recvs(), len(got))
	}
	for i := range got {
		if got[i] != i {
			t.Fatalf("arrival order %v", got)
		}
	}
	if int(a.FaultDrops()) != burst-sent || b.wire.n != 0 {
		t.Fatalf("FaultDrops() = %d, want %d; %d left on the wire", a.FaultDrops(), burst-sent, b.wire.n)
	}
}

// TestSetLinkPropDelayIdleLinkKeepsFIFO: shortening an idle link's delay is
// safe; doing it under packets in flight would let later ones overtake, and
// is refused.
func TestSetLinkPropDelayIdleLinkKeepsFIFO(t *testing.T) {
	var n *Network
	var got []int
	var at []sim.Time
	n, a, b := ackLink(t, 2*sim.Microsecond, func(pkt *Packet) {
		got, at = append(got, pkt.CumAck), append(at, n.Sched.Now())
	})
	sendAcks(n, a, 0, 10)
	n.Sched.Run()
	n.SetLinkPropDelay(b, 300) // idle; from either end
	start := n.Sched.Now()
	sendAcks(n, a, 10, 20)
	n.Sched.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("arrival order %v", got)
		}
	}
	if len(got) != 20 || at[10] != start+51+300 {
		t.Fatalf("%d arrivals; first after the change at %v, want %v", len(got), at[10], start+51+300)
	}

	sendAcks(n, a, 20, 25)
	n.Sched.RunUntil(n.Sched.Now() + 200) // three on the wire
	defer func() {
		if recover() == nil {
			t.Error("SetLinkPropDelay with packets on the wire should panic")
		}
	}()
	n.SetLinkPropDelay(a, 100)
}

// TestHopZeroAlloc pins the per-hop path: in steady state a packet crossing
// a switch (send → txfree → receive → forward → send → txfree → receive)
// schedules four events and allocates nothing — no closure per hop.
func TestHopZeroAlloc(t *testing.T) {
	n, err := New(1, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sw := n.AddSwitch(2)
	sw.SetCandidates(1, []int{1})
	sw.Forward = ECMP(sw)
	arrived := 0
	in, out := n.newPort(&sink{func(*Packet) {}}, 0), n.newPort(&sink{func(*Packet) { arrived++ }}, 0)
	in.peer, sw.Port(0).peer = sw.Port(0), in
	out.peer, sw.Port(1).peer = sw.Port(1), out
	n.SetLinkPropDelay(in, sim.Microsecond)
	n.SetLinkPropDelay(out, sim.Microsecond)

	pkts := make([]*Packet, 8)
	for i := range pkts {
		pkts[i] = &Packet{FlowID: 1, Dst: 1, Seq: i, Bytes: n.cfg.MTU}
	}
	cross := func() {
		for _, pkt := range pkts {
			in.Send(pkt)
		}
		if ev := n.Sched.Run(); ev != 4*len(pkts) {
			t.Fatalf("%d events for %d packets, want 4 each", ev, len(pkts))
		}
	}
	cross() // grow the heap and the rings
	if allocs := testing.AllocsPerRun(100, cross); allocs != 0 {
		t.Fatalf("a steady-state switch crossing allocates %.1f times per %d packets, want 0", allocs, len(pkts))
	}
	if arrived != 102*len(pkts) {
		t.Fatalf("%d packets arrived, want %d", arrived, 102*len(pkts))
	}
}

// TestFlowSteadyStateZeroAlloc pins the transport: once a flow is running,
// a data packet becomes its ACK at the receiver and the ACK becomes the
// sender's next data packet, the flow's state rides on both, and every RTO
// arm schedules the flow's one callback — so slices of simulated time
// allocate nothing. The flow's state, callback and reassembly bitset are
// allocated before the measured slices. A host allocates a packet only when
// its spare list is empty: while a window grows past any size it had before,
// or to replace a packet a queue dropped. So the slices are taken in
// congestion avoidance, between two losses.
func TestFlowSteadyStateZeroAlloc(t *testing.T) {
	n, _ := twoHostNet(t, DefaultConfig())
	if _, err := n.StartFlow(0, 1, 100_000_000, 0); err != nil {
		t.Fatal(err)
	}
	deadline := 7 * sim.Millisecond // past slow start's loss and the first RTO expiries
	n.Sched.RunUntil(deadline)
	nic := n.Hosts[0].NIC()
	drops, sent := nic.Drops(), nic.Sent()
	slice := func() {
		deadline += 40 * sim.Microsecond
		n.Sched.RunUntil(deadline)
	}
	if allocs := testing.AllocsPerRun(100, slice); allocs != 0 {
		t.Fatalf("a steady-state flow allocates %.1f times per 40 µs slice, want 0", allocs)
	}
	if nic.Drops() != drops || nic.Sent()-sent < 3000 || n.ActiveFlows() != 1 {
		t.Fatalf("measured window: %d drops, %d packets sent, %d flows active; want 0, ≥ 3000, 1",
			nic.Drops()-drops, nic.Sent()-sent, n.ActiveFlows())
	}
}
