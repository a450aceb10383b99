package netsim

import (
	"fmt"

	"repro/internal/rmt"
	"repro/internal/sim"
)

// Switch is a store-and-forward switch with per-port drop-tail output
// queues, an event-driven queue tracker (the rmt package's model of [10]),
// per-port utilization/loss EWMA metrics, and a pluggable forwarding
// function installed by the topology builder or the experiment.
type Switch struct {
	net   *Network
	id    int
	ports []*Port

	candidates [][]int // candidates[dstHost] = eligible output ports

	failed    bool   // switch fault: every received packet is dropped
	failDrops uint64 // packets dropped because the switch was failed

	// Forward picks the output port for a packet. It must return a valid
	// port index; returning a negative index drops the packet (used for
	// blackhole tests). It must not retain pkt: the destination host
	// rewrites the packet it consumes and sends it on again.
	Forward func(pkt *Packet) int

	// Tracker mirrors every port's queue occupancy via enqueue/dequeue
	// events, the §3 mechanism for line-rate local queue metrics.
	Tracker *rmt.QueueTracker

	// OnMetricTick, if set, runs after every periodic per-port metric
	// refresh — the hook experiments use to push fresh metrics into a
	// Thanos resource table (the probe-processing path of §3).
	OnMetricTick func()
}

func newSwitch(n *Network, id, ports int) *Switch {
	sw := &Switch{net: n, id: id}
	tracker, err := rmt.NewQueueTracker(ports)
	if err != nil {
		panic(err) // ports > 0 guaranteed by callers
	}
	sw.Tracker = tracker
	for i := 0; i < ports; i++ {
		p := n.newPort(sw, i)
		q := i
		p.OnEnqueue = func() { sw.Tracker.Enqueue(q) }
		p.OnDequeue = func() { sw.Tracker.Dequeue(q) }
		sw.ports = append(sw.ports, p)
	}
	return sw
}

// ID returns the switch id.
func (s *Switch) ID() int { return s.id }

// NumPorts returns the port count.
func (s *Switch) NumPorts() int { return len(s.ports) }

// Port returns port i.
func (s *Switch) Port(i int) *Port { return s.port(i) }

func (s *Switch) port(i int) *Port {
	if i < 0 || i >= len(s.ports) {
		panic(fmt.Sprintf("netsim: switch %d port %d out of range [0,%d)", s.id, i, len(s.ports)))
	}
	return s.ports[i]
}

// SetCandidates installs the eligible output ports toward a destination
// host (the equal-cost set ECMP or a Thanos policy then narrows).
func (s *Switch) SetCandidates(dst int, ports []int) {
	for len(s.candidates) <= dst {
		s.candidates = append(s.candidates, nil)
	}
	s.candidates[dst] = ports
}

// Candidates returns the eligible output ports toward dst (nil if unset).
func (s *Switch) Candidates(dst int) []int {
	if dst < 0 || dst >= len(s.candidates) {
		return nil
	}
	return s.candidates[dst]
}

// SetFailed fails (true) or recovers (false) the whole switch. A failed
// switch blackholes every packet it receives, and each attached link is
// taken down in both directions so neighbors count their losses at the
// faulted device, exactly as a dead box behaves. Recovery restores the
// switch and brings all its links back up; a link that was additionally
// failed on its own must be re-failed by the caller afterwards.
func (s *Switch) SetFailed(failed bool) {
	if s.failed == failed {
		return
	}
	s.failed = failed
	for _, p := range s.ports {
		if p.peer != nil {
			p.SetLinkDown(failed)
		}
	}
}

// Failed reports whether the switch is currently failed.
func (s *Switch) Failed() bool { return s.failed }

// FaultDrops returns packets dropped because this switch was failed or its
// links were down.
func (s *Switch) FaultDrops() uint64 {
	n := s.failDrops
	for _, p := range s.ports {
		n += p.faultPkts
	}
	return n
}

// Receive implements Node: it forwards the packet out the port chosen by
// the Forward function. A failed switch drops everything.
func (s *Switch) Receive(pkt *Packet, _ int) {
	if s.failed {
		s.failDrops++
		return
	}
	if s.Forward == nil {
		panic(fmt.Sprintf("netsim: switch %d has no forwarding function", s.id))
	}
	out := s.Forward(pkt)
	if out < 0 {
		return // dropped by policy
	}
	s.port(out).Send(pkt)
}

// startMetricTick begins this switch's self-rescheduling periodic metric
// refresh, keyed by switch id.
func (s *Switch) startMetricTick() {
	var tick func()
	tick = func() {
		s.refreshMetrics(s.net.cfg.MetricTick)
		s.net.Sched.AfterPri(s.net.cfg.MetricTick, key(priTick, s.id), tick)
	}
	s.net.Sched.AfterPri(s.net.cfg.MetricTick, key(priTick, s.id), tick)
}

// refreshMetrics updates every port's utilization/loss EWMAs and invokes
// the switch's metric hook, if any.
func (s *Switch) refreshMetrics(interval sim.Time) {
	for _, p := range s.ports {
		p.refreshMetrics(interval)
	}
	if s.OnMetricTick != nil {
		s.OnMetricTick()
	}
}
