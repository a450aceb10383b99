// Package topology builds the evaluation networks of §7.2.1: the six-switch
// leaf-spine testbed of Figure 15 (a two-tier folded Clos, generalized to
// arbitrary sizes) and the k-ary FatTree [1] used for the ~450-host
// simulations. Builders wire hosts, switches and links, install candidate
// (equal-cost) port sets toward every destination, and default every switch
// to ECMP forwarding; experiments then override the forwarding of the
// switches under study.
package topology

import (
	"fmt"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// Clos is a two-tier leaf-spine network.
//
// Port conventions: leaf ports [0, H) face hosts, [H, H+S) face spines
// (port H+s reaches spine s); spine ports [0, L) face leaves (port l
// reaches leaf l).
type Clos struct {
	Net          *netsim.Network
	Leaves       []*netsim.Switch
	Spines       []*netsim.Switch
	HostsPerLeaf int
}

// NewTwoTierClos builds a leaf-spine network with the given shape over an
// existing empty Network.
func NewTwoTierClos(net *netsim.Network, leaves, spines, hostsPerLeaf int) (*Clos, error) {
	if leaves < 2 || spines < 1 || hostsPerLeaf < 1 {
		return nil, fmt.Errorf("topology: need ≥2 leaves, ≥1 spine, ≥1 host/leaf (got %d/%d/%d)",
			leaves, spines, hostsPerLeaf)
	}
	if len(net.Hosts) != 0 || len(net.Switches) != 0 {
		return nil, fmt.Errorf("topology: network not empty")
	}
	c := &Clos{Net: net, HostsPerLeaf: hostsPerLeaf}
	for l := 0; l < leaves; l++ {
		c.Leaves = append(c.Leaves, net.AddSwitch(hostsPerLeaf+spines))
	}
	for s := 0; s < spines; s++ {
		c.Spines = append(c.Spines, net.AddSwitch(leaves))
	}
	// Hosts and host links.
	for l := 0; l < leaves; l++ {
		for hp := 0; hp < hostsPerLeaf; hp++ {
			h := net.AddHost()
			net.Connect(h, c.Leaves[l], hp)
		}
	}
	// Leaf–spine links.
	for l := 0; l < leaves; l++ {
		for s := 0; s < spines; s++ {
			net.ConnectSwitches(c.Leaves[l], hostsPerLeaf+s, c.Spines[s], l)
		}
	}
	// Candidate sets.
	totalHosts := leaves * hostsPerLeaf
	uplinks := make([]int, spines)
	for s := range uplinks {
		uplinks[s] = hostsPerLeaf + s
	}
	for l, leaf := range c.Leaves {
		for dst := 0; dst < totalHosts; dst++ {
			if dst/hostsPerLeaf == l {
				leaf.SetCandidates(dst, []int{dst % hostsPerLeaf})
			} else {
				leaf.SetCandidates(dst, uplinks)
			}
		}
		leaf.Forward = netsim.ECMP(leaf)
	}
	for _, spine := range c.Spines {
		for dst := 0; dst < totalHosts; dst++ {
			spine.SetCandidates(dst, []int{dst / hostsPerLeaf})
		}
		spine.Forward = netsim.ECMP(spine)
	}
	return c, nil
}

// LeafOf returns the leaf switch of a host.
func (c *Clos) LeafOf(host int) *netsim.Switch {
	return c.Leaves[host/c.HostsPerLeaf]
}

// UplinkPort returns the leaf port facing spine s.
func (c *Clos) UplinkPort(s int) int { return c.HostsPerLeaf + s }

// NumHosts returns the total host count.
func (c *Clos) NumHosts() int { return len(c.Leaves) * c.HostsPerLeaf }

// Testbed builds the Figure 15 configuration: four leaves, two spines, two
// hosts per leaf (eight hosts, six switches, 10 Gb/s links).
func Testbed(net *netsim.Network) (*Clos, error) {
	return NewTwoTierClos(net, 4, 2, 2)
}

// FatTree is a three-tier k-ary fat tree [1]: k pods of k/2 edge and k/2
// aggregation switches, (k/2)² cores, and k³/4 hosts.
//
// Port conventions: edge ports [0, k/2) face hosts and [k/2, k) face aggs;
// agg ports [0, k/2) face edges and [k/2, k) face cores; core ports [0, k)
// face pods. Aggregation switch a within a pod connects to cores
// [a·k/2, (a+1)·k/2).
type FatTree struct {
	Net   *netsim.Network
	K     int
	Edges [][]*netsim.Switch // [pod][idx]
	Aggs  [][]*netsim.Switch // [pod][idx]
	Cores []*netsim.Switch
}

// NewFatTree builds a k-ary fat tree over an empty network. k must be even
// and ≥ 2.
func NewFatTree(net *netsim.Network, k int) (*FatTree, error) {
	if k < 2 || k%2 != 0 {
		return nil, fmt.Errorf("topology: fat tree k must be even and ≥ 2, got %d", k)
	}
	if len(net.Hosts) != 0 || len(net.Switches) != 0 {
		return nil, fmt.Errorf("topology: network not empty")
	}
	ft := &FatTree{Net: net, K: k}
	half := k / 2

	for p := 0; p < k; p++ {
		var edges, aggs []*netsim.Switch
		for i := 0; i < half; i++ {
			edges = append(edges, net.AddSwitch(k))
		}
		for i := 0; i < half; i++ {
			aggs = append(aggs, net.AddSwitch(k))
		}
		ft.Edges = append(ft.Edges, edges)
		ft.Aggs = append(ft.Aggs, aggs)
	}
	for i := 0; i < half*half; i++ {
		ft.Cores = append(ft.Cores, net.AddSwitch(k))
	}

	// Hosts.
	for p := 0; p < k; p++ {
		for e := 0; e < half; e++ {
			for h := 0; h < half; h++ {
				host := net.AddHost()
				net.Connect(host, ft.Edges[p][e], h)
			}
		}
	}
	// Edge–agg links: edge e port half+a ↔ agg a port e.
	for p := 0; p < k; p++ {
		for e := 0; e < half; e++ {
			for a := 0; a < half; a++ {
				net.ConnectSwitches(ft.Edges[p][e], half+a, ft.Aggs[p][a], e)
			}
		}
	}
	// Agg–core links: agg a port half+c ↔ core a·half+c port p.
	for p := 0; p < k; p++ {
		for a := 0; a < half; a++ {
			for cIdx := 0; cIdx < half; cIdx++ {
				core := ft.Cores[a*half+cIdx]
				net.ConnectSwitches(ft.Aggs[p][a], half+cIdx, core, p)
			}
		}
	}

	// Candidate sets.
	total := ft.NumHosts()
	up := make([]int, half)
	for i := range up {
		up[i] = half + i
	}
	for p := 0; p < k; p++ {
		for e := 0; e < half; e++ {
			edge := ft.Edges[p][e]
			for dst := 0; dst < total; dst++ {
				dp, de, dh := ft.locate(dst)
				if dp == p && de == e {
					edge.SetCandidates(dst, []int{dh})
				} else {
					edge.SetCandidates(dst, up)
				}
			}
			edge.Forward = netsim.ECMP(edge)
		}
		for a := 0; a < half; a++ {
			agg := ft.Aggs[p][a]
			for dst := 0; dst < total; dst++ {
				dp, de, _ := ft.locate(dst)
				if dp == p {
					agg.SetCandidates(dst, []int{de})
				} else {
					agg.SetCandidates(dst, up)
				}
			}
			agg.Forward = netsim.ECMP(agg)
		}
	}
	for ci, core := range ft.Cores {
		_ = ci
		for dst := 0; dst < total; dst++ {
			dp, _, _ := ft.locate(dst)
			core.SetCandidates(dst, []int{dp})
		}
		core.Forward = netsim.ECMP(core)
	}
	return ft, nil
}

// NumHosts returns k³/4.
func (ft *FatTree) NumHosts() int { return ft.K * ft.K * ft.K / 4 }

// locate maps a host id to (pod, edge index, host port).
func (ft *FatTree) locate(host int) (pod, edge, port int) {
	half := ft.K / 2
	perPod := half * half
	pod = host / perPod
	rem := host % perPod
	return pod, rem / half, rem % half
}

// EdgeOf returns the edge switch of a host.
func (ft *FatTree) EdgeOf(host int) *netsim.Switch {
	p, e, _ := ft.locate(host)
	return ft.Edges[p][e]
}

// SetCorePropDelay sets the propagation delay of every agg↔core link to d,
// modelling the longer cross-pod fiber runs of a real datacenter (~5 µs/km;
// pods sit metres apart, cores whole halls away). A delay past the
// scheduler's timing-wheel span sends those hops through its far heap.
func (ft *FatTree) SetCorePropDelay(d sim.Time) {
	half := ft.K / 2
	for p := 0; p < ft.K; p++ {
		for a := 0; a < half; a++ {
			agg := ft.Aggs[p][a]
			for c := half; c < ft.K; c++ {
				ft.Net.SetLinkPropDelay(agg.Port(c), d)
			}
		}
	}
}
