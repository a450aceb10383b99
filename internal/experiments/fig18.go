package experiments

import (
	"fmt"

	"repro/internal/experiments/runner"
	"repro/internal/netsim"
	"repro/internal/netsim/topology"
	"repro/internal/policy"
	"repro/internal/sim"
)

// PortPolicy identifies one of the three §7.2.4 port load-balancing
// policies.
type PortPolicy int

// The three port-level load-balancing policies of §7.2.4.
const (
	PortRandom   PortPolicy = iota // Policy 1: uniform random output port
	PortMinQueue                   // Policy 2: least queued output port
	PortDRILL                      // Policy 3: DRILL(d, m)
)

func (p PortPolicy) String() string {
	switch p {
	case PortRandom:
		return "policy1-random"
	case PortMinQueue:
		return "policy2-minq"
	case PortDRILL:
		return "policy3-drill"
	}
	return fmt.Sprintf("PortPolicy(%d)", int(p))
}

// portSchema is the per-port metric layout for §7.2.4: current queue
// occupancy (event-driven, §3) and the occupancy snapshot from the previous
// time slot (DRILL's memory).
var portSchema = policy.Schema{Attrs: []string{"queue", "qprev"}}

func portPolicySource(p PortPolicy, d, m int) string {
	switch p {
	case PortMinQueue:
		return "out port = min(table, queue)\n"
	case PortDRILL:
		return fmt.Sprintf("out port = min(union(sample(table, %d), minK(table, qprev, %d)), queue)\n", d, m)
	}
	panic("experiments: no DSL source for " + p.String())
}

// buildPortLBNetwork constructs the Clos and installs per-packet
// policy-driven uplink selection on every leaf (downstream hops are
// single-path in a two-tier Clos).
func buildPortLBNetwork(cfg NetConfig, pol PortPolicy, d, m int) (*netsim.Network, error) {
	// Per-packet spraying reorders packets; like DRILL's evaluation, the
	// transport uses a raised duplicate-ACK threshold so reordering is not
	// mistaken for loss.
	ncfg := netsim.DefaultConfig()
	ncfg.DupAckThreshold = 16
	if cfg.QueuePkts > 0 {
		ncfg.QueuePkts = cfg.QueuePkts
	}
	// DRILL's decision slots: queue snapshots refresh every tick rather
	// than per event, modeling the staleness window created by concurrent
	// decision-makers (multiple ingress pipelines, §5.1.5). Within a slot a
	// global-min policy herds packets onto one port; DRILL's randomized
	// sampling is robust to exactly this.
	ncfg.MetricTick = 25 * sim.Microsecond
	net, err := netsim.New(cfg.Seed, ncfg)
	if err != nil {
		return nil, err
	}
	clos, err := topology.NewTwoTierClos(net, cfg.Leaves, cfg.Spines, cfg.HostsPerLeaf)
	if err != nil {
		return nil, err
	}
	if pol == PortRandom {
		// Policy 1: uniform random port per flow — ECMP [35], the paper's
		// own gloss for the random filter (Table 5: "K=1, random (e.g.,
		// ECMP)"), and the topology default.
		net.StartMetricTicks()
		return net, nil
	}
	if d > cfg.Spines {
		d = cfg.Spines
	}
	if m > cfg.Spines {
		m = cfg.Spines
	}
	src := portPolicySource(pol, d, m)
	for _, leaf := range clos.Leaves {
		pp, err := policy.Parse(src)
		if err != nil {
			return nil, err
		}
		module, err := policy.NewModule(cfg.Spines, portSchema, pp)
		if err != nil {
			return nil, err
		}
		resourceToPort := make(map[int]int, cfg.Spines)
		for s := 0; s < cfg.Spines; s++ {
			if err := module.Upsert(s, []int64{0, 0}); err != nil {
				return nil, err
			}
			resourceToPort[s] = clos.UplinkPort(s)
		}
		netsim.NewPortSelector(leaf, module, resourceToPort)

		// Slot boundary: queue <- current occupancy snapshot, and
		// qprev <- the previous slot's snapshot (DRILL's "m least loaded
		// samples from the last time slot").
		vals := make([]int64, len(portSchema.Attrs)) // reused: Stage copies out of it
		leaf.OnMetricTick = func() {
			for s := 0; s < cfg.Spines; s++ {
				if !module.MetricsInto(s, vals) {
					continue
				}
				vals[1] = vals[0]
				vals[0] = int64(leaf.Port(clos.UplinkPort(s)).QueueLen())
				if err := module.Stage(s, vals); err != nil {
					panic(err)
				}
			}
		}
	}
	net.StartMetricTicks()
	return net, nil
}

// Fig18Result is the Figure 18 reproduction: mean FCT per load per port
// policy, normalized against Policy 1.
type Fig18Result struct {
	Loads      []float64
	Policies   []PortPolicy
	MeanFCTUs  [][]float64
	Normalized [][]float64
	D, M       int
}

func (r Fig18Result) String() string {
	out := fmt.Sprintf("== Figure 18: port load balancing (DRILL d=%d m=%d): mean FCT normalized to policy 1 ==\n", r.D, r.M)
	out += fmt.Sprintf("%-18s", "load")
	for _, l := range r.Loads {
		out += fmt.Sprintf("%10.0f%%", l*100)
	}
	out += "\n"
	for pi, p := range r.Policies {
		out += fmt.Sprintf("%-18s", p)
		for li := range r.Loads {
			out += fmt.Sprintf("%10.2f", r.Normalized[pi][li])
		}
		out += "   (abs µs:"
		for li := range r.Loads {
			out += fmt.Sprintf(" %.0f", r.MeanFCTUs[pi][li])
		}
		out += ")\n"
	}
	return out
}

// Fig18 sweeps loads × the three port policies with the given DRILL
// parameters and reports mean FCT normalized to Policy 1. It runs the grid
// serially; Fig18With fans it across a worker pool with identical results.
func Fig18(cfg NetConfig, loads []float64) (Fig18Result, error) {
	return Fig18With(cfg, loads, runner.Serial())
}

// Fig18With is Fig18 with the (policy, load) grid fanned across the pool's
// workers; every point owns its network and scheduler, so results match the
// serial run exactly.
func Fig18With(cfg NetConfig, loads []float64, pool runner.Pool) (Fig18Result, error) {
	if err := cfg.Validate(); err != nil {
		return Fig18Result{}, err
	}
	pols := []PortPolicy{PortRandom, PortMinQueue, PortDRILL}
	res := Fig18Result{Loads: loads, Policies: pols, D: cfg.DrillD, M: cfg.DrillM}
	grid, err := runner.Map(pool, len(pols)*len(loads), func(i int) (float64, error) {
		pol, load := pols[i/len(loads)], loads[i%len(loads)]
		m, err := averageRuns(cfg, load, func(c NetConfig) (*netsim.Network, error) {
			return buildPortLBNetwork(c, pol, c.DrillD, c.DrillM)
		})
		if err != nil {
			return 0, fmt.Errorf("%s at load %.2f: %w", pol, load, err)
		}
		return m, nil
	})
	if err != nil {
		return res, err
	}
	for pi := range pols {
		res.MeanFCTUs = append(res.MeanFCTUs, grid[pi*len(loads):(pi+1)*len(loads)])
	}
	res.Normalized = normalizeAgainstFirst(res.MeanFCTUs)
	return res, nil
}

// DrillSweepPoint is one (d, m) configuration's mean FCT at a fixed load —
// the ablation behind §7.2.4's observation that d=4, m=4 worked best in the
// authors' environment versus DRILL's suggested d=2, m=1.
type DrillSweepPoint struct {
	D, M      int
	MeanFCTUs float64
}

// DrillSweep evaluates DRILL(d, m) across the given parameter grid at one
// load, serially. DrillSweepWith fans the grid across a worker pool.
func DrillSweep(cfg NetConfig, load float64, ds, ms []int) ([]DrillSweepPoint, error) {
	return DrillSweepWith(cfg, load, ds, ms, runner.Serial())
}

// DrillSweepWith is DrillSweep with the (d, m) grid fanned across the pool's
// workers; every point owns its network and scheduler.
func DrillSweepWith(cfg NetConfig, load float64, ds, ms []int, pool runner.Pool) ([]DrillSweepPoint, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return runner.Map(pool, len(ds)*len(ms), func(i int) (DrillSweepPoint, error) {
		d, m := ds[i/len(ms)], ms[i%len(ms)]
		net, err := buildPortLBNetwork(cfg, PortDRILL, d, m)
		if err != nil {
			return DrillSweepPoint{}, err
		}
		if _, err := offerTraffic(cfg, net, load); err != nil {
			return DrillSweepPoint{}, err
		}
		fct, err := meanFCT(cfg, net)
		if err != nil {
			return DrillSweepPoint{}, err
		}
		return DrillSweepPoint{D: d, M: m, MeanFCTUs: fct}, nil
	})
}

// BuildPortLB exposes the Figure 18 network construction (topology +
// per-packet port policy installation) to external drivers such as
// cmd/netsim.
func BuildPortLB(cfg NetConfig, pol PortPolicy) (*netsim.Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return buildPortLBNetwork(cfg, pol, cfg.DrillD, cfg.DrillM)
}
