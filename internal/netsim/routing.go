package netsim

import (
	"fmt"
	"slices"

	"repro/internal/policy"
)

// ECMP installs classic per-flow equal-cost hashing on the switch: a flow's
// packets always take the same candidate port (no reordering), with the
// port chosen by hashing the flow id — the baseline "select a path
// uniformly at random" policy (Policy 1 of §7.2.3).
func ECMP(sw *Switch) func(pkt *Packet) int {
	return func(pkt *Packet) int {
		cands := sw.Candidates(pkt.Dst)
		if len(cands) == 0 {
			panic(fmt.Sprintf("netsim: switch %d has no route to host %d", sw.id, pkt.Dst))
		}
		if len(cands) == 1 {
			return cands[0]
		}
		h := uint64(pkt.FlowID) * 0x9E3779B97F4A7C15
		return cands[h%uint64(len(cands))]
	}
}

// ThanosModule embeds a Thanos filter module in a switch. It is
// policy.Module: an SMBM resource table plus a policy evaluated with the
// real filter units.
type ThanosModule = policy.Module

// Backend is the decision-engine interface the routing layers consume: one
// policy decision per packet, probe-driven metric refresh, and metric
// read-back for event-driven local metrics. Both *policy.Module (one
// pipeline, single-threaded) and *engine.Engine (sharded, concurrent)
// satisfy it, so a simulated switch can swap its filter module for the
// concurrent engine without touching the routing code.
type Backend interface {
	Decide() (id int, ok bool)
	Upsert(id int, vals []int64) error
	Metrics(id int) ([]int64, bool)
}

// NewThanosModule builds a module with capacity resources, the given
// attribute schema, and a policy (typically from policy.Parse).
func NewThanosModule(capacity int, schema policy.Schema, pol *policy.Policy) (*ThanosModule, error) {
	return policy.NewModule(capacity, schema, pol)
}

// PathRouter makes per-flow path decisions at a leaf switch (§7.2.3):
// the first packet of each flow consults the Thanos module to pick an
// uplink resource, and the flow stays pinned to it (flow-level routing; the
// paper applies policies at flow or flowlet granularity). Local
// destinations and return traffic use the candidate table directly.
type PathRouter struct {
	sw         *Switch
	module     Backend
	uplinkPort func(resource int) int
	flowPath   []int // flow id (dense from 1) → pinned port + 1; 0 = unpinned
	pinned     int
}

// NewPathRouter installs policy-driven uplink selection on sw. uplinkPort
// maps a resource id from the module's table to a switch port.
// The router is installed as sw.Forward and also returned for inspection.
func NewPathRouter(sw *Switch, module Backend, uplinkPort func(resource int) int) *PathRouter {
	r := &PathRouter{sw: sw, module: module, uplinkPort: uplinkPort}
	sw.Forward = r.forward
	return r
}

func (r *PathRouter) forward(pkt *Packet) int {
	cands := r.sw.Candidates(pkt.Dst)
	if len(cands) == 0 {
		panic(fmt.Sprintf("netsim: switch %d has no route to host %d", r.sw.id, pkt.Dst))
	}
	if len(cands) == 1 {
		return cands[0] // host-facing or single downlink
	}
	id := int(pkt.FlowID)
	if id < len(r.flowPath) && r.flowPath[id] != 0 {
		return r.flowPath[id] - 1
	}
	port := cands[0]
	if res, ok := r.module.Decide(); ok {
		port = r.uplinkPort(res)
	}
	for len(r.flowPath) <= id {
		r.flowPath = append(r.flowPath, 0)
	}
	r.flowPath[id] = port + 1
	r.pinned++
	return port
}

// Invalidate unpins every flow currently routed through port, returning how
// many were cleared. The control plane calls this when a path fails: each
// affected flow re-consults the module (which by then should exclude the
// dead uplink) on its next packet — typically the retransmission that
// recovers the loss. Flows on healthy paths keep their pins.
func (r *PathRouter) Invalidate(port int) int {
	n := 0
	for id, p := range r.flowPath {
		if p == port+1 {
			r.flowPath[id] = 0
			n++
		}
	}
	r.pinned -= n
	return n
}

// Pinned returns the number of flows currently pinned to a path.
func (r *PathRouter) Pinned() int { return r.pinned }

// PortSelector makes per-packet output-port decisions (§7.2.4): every
// packet with more than one candidate port consults the Thanos module,
// whose table holds one resource per port with live queue metrics.
type PortSelector struct {
	sw         *Switch
	module     Backend
	portOf     []int  // resource -> port
	resourceOf []int  // port -> resource, -1 for a port not under policy control
	dropped    uint64 // metric updates the backend refused
}

// NewPortSelector installs per-packet policy-driven port selection on sw.
// resourceToPort maps each resource under policy control to its own port.
func NewPortSelector(sw *Switch, module Backend, resourceToPort map[int]int) *PortSelector {
	s := &PortSelector{
		sw: sw, module: module,
		resourceOf: make([]int, sw.NumPorts()),
	}
	for port := range s.resourceOf {
		s.resourceOf[port] = -1
	}
	for res, port := range resourceToPort {
		s.resourceOf[port] = res
	}
	s.portOf = make([]int, slices.Max(s.resourceOf)+1)
	for port, res := range s.resourceOf {
		if res >= 0 {
			s.portOf[res] = port
		}
	}
	sw.Forward = s.forward
	return s
}

func (s *PortSelector) forward(pkt *Packet) int {
	cands := s.sw.Candidates(pkt.Dst)
	if len(cands) == 0 {
		panic(fmt.Sprintf("netsim: switch %d has no route to host %d", s.sw.id, pkt.Dst))
	}
	if len(cands) == 1 {
		return cands[0]
	}
	if res, ok := s.module.Decide(); ok {
		return s.portOf[res]
	}
	return cands[0]
}

// SyncQueueMetric wires a switch's event-driven queue tracker into the
// module's table: whenever a controlled port's occupancy changes, the
// corresponding resource's queue attribute (dimension queueDim) is
// rewritten. This is the event-driven local-metric path of §3.
func (s *PortSelector) SyncQueueMetric(queueDim int) {
	prev := s.sw.Tracker.OnChange
	s.sw.Tracker.OnChange = func(q int, newLen int64) {
		if prev != nil {
			prev(q, newLen)
		}
		res := s.resourceOf[q]
		if res < 0 {
			return
		}
		vals, ok := s.module.Metrics(res)
		if !ok {
			return
		}
		vals[queueDim] = newLen
		if err := s.module.Upsert(res, vals); err != nil {
			// The resource was just read, so this "cannot" fail — but a
			// degraded backend (e.g. an engine whose shards are all
			// quarantined, or one racing Close) may refuse writes. A stale
			// queue metric until the next event is strictly better than
			// crashing the simulation; the periodic metric tick heals it.
			s.dropped++
		}
	}
}

// DroppedUpdates returns control-plane metric updates the backend refused;
// the table serves slightly stale queue metrics until a later event or
// metric tick succeeds.
func (s *PortSelector) DroppedUpdates() uint64 { return s.dropped }
