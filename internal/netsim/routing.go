package netsim

import (
	"fmt"

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

// PathRouter makes per-flow path decisions at a leaf switch (§7.2.3):
// the first packet of each flow consults the Thanos module to pick an
// uplink resource, and the flow stays pinned to it (flow-level routing; the
// paper applies policies at flow or flowlet granularity). Local
// destinations and return traffic use the candidate table directly.
type PathRouter struct {
	sw         *Switch
	module     *policy.Module
	uplinkPort func(resource int) int
	flowPath   []int // flow id (dense from 1) → pinned port + 1; 0 = unpinned
}

// NewPathRouter installs policy-driven uplink selection on sw. uplinkPort
// maps a resource id from the module's table to a switch port.
// The router is installed as sw.Forward and also returned for inspection.
func NewPathRouter(sw *Switch, module *policy.Module, uplinkPort func(resource int) int) *PathRouter {
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
	return port
}

// PortSelector makes per-packet output-port decisions (§7.2.4): every
// packet with more than one candidate port consults the Thanos module,
// whose table holds one resource per port with live queue metrics.
type PortSelector struct {
	sw     *Switch
	module *policy.Module
	portOf []int // resource -> port
}

// NewPortSelector installs per-packet policy-driven port selection on sw.
// resourceToPort maps each resource under policy control to its own port.
func NewPortSelector(sw *Switch, module *policy.Module, resourceToPort map[int]int) *PortSelector {
	s := &PortSelector{sw: sw, module: module, portOf: make([]int, module.Table.Capacity())}
	for res, port := range resourceToPort {
		s.portOf[res] = port
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
