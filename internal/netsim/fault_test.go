package netsim

import (
	"testing"

	"repro/internal/sim"
)

// TestHostNoSpuriousRTOAfterCompletion is the timerGen regression test: a
// flow that completes just before its pending RTO fires must not
// go-back-N retransmit out of the stale callback.
func TestHostNoSpuriousRTOAfterCompletion(t *testing.T) {
	cfg := DefaultConfig()
	n, _ := twoHostNet(t, cfg)
	// A short flow on an idle network completes in a handful of
	// microseconds, far inside the 1 ms RTO, so when it finishes several
	// armed timer callbacks are still pending in the event queue.
	n.StartFlow(0, 1, 8*int64(cfg.MTU), 0)
	deadline := 100 * sim.Millisecond
	n.Sched.RunUntil(deadline)
	if n.ActiveFlows() != 0 {
		t.Fatal("flow did not complete")
	}
	if got := n.Hosts[0].ActiveSenders(); got != 0 {
		t.Fatalf("sender state leaked: %d active senders", got)
	}
	// Run well past every armed RTO (and any it could re-arm): the stale
	// callbacks must all no-op.
	n.Sched.RunUntil(deadline + 100*sim.Millisecond)
	rto, fast := n.Hosts[0].Retransmits()
	if rto != 0 || fast != 0 {
		t.Fatalf("spurious retransmits after completion: rto=%d fast=%d", rto, fast)
	}
	sent := n.Hosts[0].NIC().sentPkts
	n.Sched.RunUntil(deadline + 500*sim.Millisecond)
	if got := n.Hosts[0].NIC().sentPkts; got != sent {
		t.Fatalf("host kept transmitting after completion: %d -> %d packets", sent, got)
	}
}

// TestHostRTORecoversFromLinkFault: packets lost while the link is down are
// recovered by the retransmission timeout once it comes back, and the fault
// drops are counted separately from congestion drops.
func TestHostRTORecoversFromLinkFault(t *testing.T) {
	cfg := DefaultConfig()
	n, sw := twoHostNet(t, cfg)
	n.StartFlow(0, 1, 64*int64(cfg.MTU), 0)
	// Fail the host1-facing link mid-flow, restore it two RTOs later.
	n.Sched.At(5*sim.Microsecond, func() { sw.Port(1).SetLinkDown(true) })
	n.Sched.At(5*sim.Microsecond+2*cfg.RTO, func() { sw.Port(1).SetLinkDown(false) })
	deadline := sim.Time(0)
	for n.ActiveFlows() > 0 {
		deadline += 100 * sim.Millisecond
		n.Sched.RunUntil(deadline)
		if deadline > 10*sim.Second {
			t.Fatal("flow never completed after link recovery")
		}
	}
	if got := sw.Port(1).FaultDrops(); got == 0 {
		t.Error("no fault drops recorded on the downed link")
	}
	rto, _ := n.Hosts[0].Retransmits()
	if rto == 0 {
		t.Error("flow completed without any RTO despite a dead link")
	}
}

// TestSwitchFailureBlackholesAndRecovers: a failed switch drops everything
// and takes its links down; recovery restores end-to-end service.
func TestSwitchFailureBlackholesAndRecovers(t *testing.T) {
	cfg := DefaultConfig()
	n, sw := twoHostNet(t, cfg)
	sw.SetFailed(true)
	if !sw.Failed() {
		t.Fatal("switch not failed")
	}
	for p := 0; p < sw.NumPorts(); p++ {
		if !sw.Port(p).Down() {
			t.Fatalf("port %d still up on a failed switch", p)
		}
	}
	n.StartFlow(0, 1, int64(cfg.MTU), 0)
	n.Sched.RunUntil(10 * cfg.RTO)
	if n.ActiveFlows() != 1 {
		t.Fatal("flow completed through a failed switch")
	}
	if n.FaultDrops() == 0 {
		t.Error("no fault drops recorded for a failed switch")
	}
	sw.SetFailed(false)
	deadline := n.Sched.Now()
	for n.ActiveFlows() > 0 {
		deadline += 100 * sim.Millisecond
		n.Sched.RunUntil(deadline)
		if deadline > 10*sim.Second {
			t.Fatal("flow never completed after switch recovery")
		}
	}
}

// TestPortSetDownFlushesQueue: failing a link drops its queued packets and
// keeps the rmt tracker consistent.
func TestPortSetDownFlushesQueue(t *testing.T) {
	cfg := DefaultConfig()
	n, sw := twoHostNet(t, cfg)
	// Stuff the switch's host1-facing queue directly, then fail the link.
	port := sw.Port(1)
	for i := 0; i < 10; i++ {
		port.Send(&Packet{FlowID: 1, Src: 0, Dst: 1, Seq: i, Bytes: cfg.MTU})
	}
	queued := uint64(port.queue.n)
	if queued == 0 {
		t.Fatal("queue empty; test needs backlog")
	}
	port.SetDown(true)
	if got := port.FaultDrops(); got != queued {
		t.Fatalf("FaultDrops() = %d, want %d flushed packets", got, queued)
	}
	if got := sw.Tracker.Len(1); got != 0 {
		t.Fatalf("tracker still sees %d queued packets after flush", got)
	}
	port.Send(&Packet{FlowID: 1, Src: 0, Dst: 1, Seq: 99, Bytes: cfg.MTU})
	if got := port.FaultDrops(); got != queued+1 {
		t.Fatalf("send on downed link not counted: %d", got)
	}
	port.SetDown(false)
	if port.Down() {
		t.Fatal("port still down after restore")
	}
	_ = n
}
