package experiments

import (
	"fmt"
	"strings"

	"repro/internal/experiments/runner"
	"repro/internal/netsim"
	"repro/internal/netsim/topology"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// RoutingPolicy identifies one of the three §7.2.3 routing policies.
type RoutingPolicy int

// The three routing policies of §7.2.3.
const (
	RouteECMP     RoutingPolicy = iota // Policy 1: uniform random path
	RouteMinUtil                       // Policy 2: least utilized path (CONGA-style)
	RouteMultiDim                      // Policy 3: top-X on queue∧loss∧util, then min util
)

func (p RoutingPolicy) String() string {
	switch p {
	case RouteECMP:
		return "policy1-random"
	case RouteMinUtil:
		return "policy2-minutil"
	case RouteMultiDim:
		return "policy3-multidim"
	}
	return fmt.Sprintf("RoutingPolicy(%d)", int(p))
}

// NetConfig shapes the simulated network experiments (Figures 17 and 18).
type NetConfig struct {
	Seed         int64
	Leaves       int
	Spines       int
	HostsPerLeaf int
	Flows        int     // flows per run (first WarmupFrac discarded)
	WarmupFrac   float64 // fraction of early flows excluded from stats
	SizeScale    float64 // multiplier on web-search flow sizes
	TopX         int     // X for Policy 3 (0 → spines/2, min 2)
	DrillD       int     // d for DRILL (Figure 18)
	DrillM       int     // m for DRILL (Figure 18)
	QueuePkts    int     // switch buffer depth override (0 → netsim default)
	Repeats      int     // seeds averaged per (policy, load) point (0 → 1)
}

// DefaultNetConfig returns a configuration sized to finish in seconds while
// keeping 2:1 leaf oversubscription and enough multipath to differentiate
// the policies. SizeScale compresses the web-search sizes so runs stay
// tractable; it scales both policies identically, preserving the
// comparison.
func DefaultNetConfig(seed int64) NetConfig {
	return NetConfig{
		Seed:         seed,
		Leaves:       4,
		Spines:       3,
		HostsPerLeaf: 6,
		Flows:        400,
		WarmupFrac:   0.1,
		SizeScale:    0.5,
		TopX:         2,
		DrillD:       2,
		DrillM:       1,
		QueuePkts:    400,
	}
}

// Validate sanity-checks the configuration.
func (c NetConfig) Validate() error {
	if c.Leaves < 2 || c.Spines < 2 || c.HostsPerLeaf < 1 {
		return fmt.Errorf("experiments: need ≥2 leaves, ≥2 spines, ≥1 host/leaf")
	}
	if c.Flows < 10 || c.WarmupFrac < 0 || c.WarmupFrac >= 1 {
		return fmt.Errorf("experiments: bad flow/warmup settings")
	}
	if c.SizeScale <= 0 {
		return fmt.Errorf("experiments: SizeScale must be positive")
	}
	return nil
}

// routingSchema is the per-path metric layout for §7.2.3: utilization
// (×1000), queue occupancy (packets), loss rate (×10000).
var routingSchema = policy.Schema{Attrs: []string{"util", "queue", "loss"}}

func (c NetConfig) topX() int {
	x := c.TopX
	if x <= 0 {
		x = c.Spines / 2
	}
	if x < 2 {
		x = 2
	}
	if x > c.Spines {
		x = c.Spines
	}
	return x
}

func routingPolicySource(p RoutingPolicy, topX int) string {
	switch p {
	case RouteMinUtil:
		return "out best = min(table, util)\n"
	case RouteMultiDim:
		return fmt.Sprintf(`
let good = intersect(minK(table, queue, %d), minK(table, loss, %d), minK(table, util, %d))
out primary = min(good, util)
out backup  = min(table, util)
fallback primary -> backup
`, topX, topX, topX)
	}
	panic("experiments: no DSL source for " + p.String())
}

// buildRoutingNetwork constructs the Clos, installs the chosen routing
// policy on every leaf, and returns the network ready for traffic.
func buildRoutingNetwork(cfg NetConfig, pol RoutingPolicy) (*netsim.Network, error) {
	ncfg := netsim.DefaultConfig()
	if cfg.QueuePkts > 0 {
		ncfg.QueuePkts = cfg.QueuePkts
	}
	net, err := netsim.New(cfg.Seed, ncfg)
	if err != nil {
		return nil, err
	}
	clos, err := topology.NewTwoTierClos(net, cfg.Leaves, cfg.Spines, cfg.HostsPerLeaf)
	if err != nil {
		return nil, err
	}
	if pol == RouteECMP {
		return net, nil // topology default is ECMP everywhere
	}
	src := routingPolicySource(pol, cfg.topX())
	for _, leaf := range clos.Leaves {
		pp, err := policy.Parse(src)
		if err != nil {
			return nil, err
		}
		module, err := policy.NewModule(cfg.Spines, routingSchema, pp)
		if err != nil {
			return nil, err
		}
		for s := 0; s < cfg.Spines; s++ {
			if err := module.Upsert(s, []int64{0, 0, 0}); err != nil {
				return nil, err
			}
		}
		netsim.NewPathRouter(leaf, module, func(res int) int { return clos.UplinkPort(res) })

		// Local queue occupancy updates event-driven (§3); utilization and
		// loss refresh on the probe/metric tick.
		uplinkOfQueue := make([]int, leaf.NumPorts()) // port → spine, -1 for host-facing ports
		for q := range uplinkOfQueue {
			uplinkOfQueue[q] = -1
		}
		for s := 0; s < cfg.Spines; s++ {
			uplinkOfQueue[clos.UplinkPort(s)] = s
		}
		vals := make([]int64, len(routingSchema.Attrs)) // reused: Stage copies out of it
		prev := leaf.Tracker.OnChange
		leaf.Tracker.OnChange = func(q int, newLen int64) {
			if prev != nil {
				prev(q, newLen)
			}
			res := uplinkOfQueue[q]
			if res < 0 || !module.MetricsInto(res, vals) {
				return
			}
			vals[1] = newLen
			if err := module.Stage(res, vals); err != nil {
				panic(err)
			}
		}
		leaf.OnMetricTick = func() {
			for s := 0; s < cfg.Spines; s++ {
				p := leaf.Port(clos.UplinkPort(s))
				if !module.MetricsInto(s, vals) {
					continue
				}
				vals[0] = int64(p.UtilEWMA() * 1000)
				vals[2] = int64(p.LossEWMA() * 10000)
				if err := module.Stage(s, vals); err != nil {
					panic(err)
				}
			}
		}
	}
	net.StartMetricTicks()
	return net, nil
}

// offerTraffic schedules cfg.Flows web-search flows with Poisson arrivals
// at the given load and returns the arrival-ordered flow ids.
func offerTraffic(cfg NetConfig, net *netsim.Network, load float64) ([]int64, error) {
	ws := workload.MustWebSearch()
	hosts := cfg.Leaves * cfg.HostsPerLeaf
	linkBps := net.Config().LinkBps
	pa, err := workload.NewPoissonArrivals(load, hosts, linkBps, ws.MeanBytes()*cfg.SizeScale)
	if err != nil {
		return nil, err
	}
	r := net.Sched.Rand()
	at := sim.Time(0)
	ids := make([]int64, 0, cfg.Flows)
	for i := 0; i < cfg.Flows; i++ {
		src := r.Intn(hosts)
		dst := r.Intn(hosts)
		for dst == src {
			dst = r.Intn(hosts)
		}
		size := int64(float64(ws.Sample(r)) * cfg.SizeScale)
		if size < 1 {
			size = 1
		}
		id, err := net.StartFlow(src, dst, size, at)
		if err != nil {
			return nil, fmt.Errorf("experiments: offered flow %d rejected: %w", i, err)
		}
		ids = append(ids, id)
		at += sim.Time(pa.NextGapSec(r) * float64(sim.Second))
	}
	return ids, nil
}

// meanFCT runs the network to completion and returns the mean FCT in
// microseconds over the post-warmup flows.
func meanFCT(cfg NetConfig, net *netsim.Network) (float64, error) {
	// Metric ticks keep the queue non-empty forever, so run in windows
	// until all flows complete.
	deadline := sim.Time(0)
	for net.ActiveFlows() > 0 {
		deadline += 100 * sim.Millisecond
		net.Sched.RunUntil(deadline)
		if deadline > 100*sim.Second {
			return 0, fmt.Errorf("experiments: flows did not complete (%d left)", net.ActiveFlows())
		}
	}
	recs := net.Records()
	skip := int(float64(len(recs)) * cfg.WarmupFrac)
	var s stats.Sample
	for _, r := range recs {
		if r.FlowID <= int64(skip) {
			continue // warmup flows, identified by arrival order
		}
		s.Add(float64(r.FCT()) / float64(sim.Microsecond))
	}
	if s.N() == 0 {
		return 0, fmt.Errorf("experiments: no post-warmup flows")
	}
	return s.Mean(), nil
}

// Fig17Result is the Figure 17 reproduction: mean FCT per load per policy,
// normalized against Policy 1.
type Fig17Result struct {
	Loads      []float64
	Policies   []RoutingPolicy
	MeanFCTUs  [][]float64 // [policy][load]
	Normalized [][]float64 // [policy][load], vs Policy 1
}

func (r Fig17Result) String() string {
	return renderFCT("Figure 17: performance-aware routing", r.Loads, r.Policies, r.MeanFCTUs, r.Normalized)
}

func renderFCT(title string, loads []float64, pols []RoutingPolicy, fct, norm [][]float64) string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: mean FCT normalized to policy 1 ==\n", title)
	fmt.Fprintf(&b, "%-18s", "load")
	for _, l := range loads {
		fmt.Fprintf(&b, "%10.0f%%", l*100)
	}
	fmt.Fprintln(&b)
	for pi, p := range pols {
		fmt.Fprintf(&b, "%-18s", p)
		for li := range loads {
			fmt.Fprintf(&b, "%10.2f", norm[pi][li])
		}
		fmt.Fprintf(&b, "   (abs µs:")
		for li := range loads {
			fmt.Fprintf(&b, " %.0f", fct[pi][li])
		}
		fmt.Fprintln(&b, ")")
	}
	return b.String()
}

// Fig17 sweeps loads × the three routing policies and reports mean FCT
// normalized to Policy 1 — the Figure 17 series. It runs the grid serially;
// Fig17With fans it across a worker pool with identical results.
func Fig17(cfg NetConfig, loads []float64) (Fig17Result, error) {
	return Fig17With(cfg, loads, runner.Serial())
}

// Fig17With is Fig17 with the (policy, load) grid fanned across the pool's
// workers. Every grid point builds its own network — own scheduler, RNGs and
// seed — so the result is bit-identical to the serial run; only wall-clock
// time changes.
func Fig17With(cfg NetConfig, loads []float64, pool runner.Pool) (Fig17Result, error) {
	if err := cfg.Validate(); err != nil {
		return Fig17Result{}, err
	}
	pols := []RoutingPolicy{RouteECMP, RouteMinUtil, RouteMultiDim}
	res := Fig17Result{Loads: loads, Policies: pols}
	grid, err := runner.Map(pool, len(pols)*len(loads), func(i int) (float64, error) {
		pol, load := pols[i/len(loads)], loads[i%len(loads)]
		m, err := averageRuns(cfg, load, func(c NetConfig) (*netsim.Network, error) {
			return buildRoutingNetwork(c, pol)
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

// averageRuns runs build+traffic+measure over cfg.Repeats seeds (cfg.Seed,
// cfg.Seed+1, ...) and returns the mean of the per-run mean FCTs. Every
// policy sees the same seed sequence, so traffic stays matched.
func averageRuns(cfg NetConfig, load float64, build func(NetConfig) (*netsim.Network, error)) (float64, error) {
	reps := cfg.Repeats
	if reps < 1 {
		reps = 1
	}
	var total float64
	for rep := 0; rep < reps; rep++ {
		c := cfg
		c.Seed = cfg.Seed + int64(rep)
		net, err := build(c)
		if err != nil {
			return 0, err
		}
		if _, err := offerTraffic(c, net, load); err != nil {
			return 0, err
		}
		m, err := meanFCT(c, net)
		if err != nil {
			return 0, err
		}
		total += m
	}
	return total / float64(reps), nil
}

func normalizeAgainstFirst(fct [][]float64) [][]float64 {
	out := make([][]float64, len(fct))
	for pi := range fct {
		out[pi] = stats.Ratio(fct[pi], fct[0])
	}
	return out
}

// BuildRouting exposes the Figure 17 network construction (topology +
// policy installation) to external drivers such as cmd/netsim.
func BuildRouting(cfg NetConfig, pol RoutingPolicy) (*netsim.Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return buildRoutingNetwork(cfg, pol)
}
