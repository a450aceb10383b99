// Performance-aware routing (§7.2.3): a leaf switch in a two-tier Clos
// picks an uplink per flow using the multi-dimensional Policy 3 — paths
// simultaneously among the top-X least queued, least lossy and least
// utilized, then the least utilized of those — compared live against
// per-flow ECMP on the same traffic.
package main

import (
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/stats"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run writes the example's report to w.
func run(w io.Writer) error {
	cfg := experiments.DefaultNetConfig(7)
	cfg.Flows = 200
	cfg.SizeScale = 0.2

	fmt.Fprintf(w, "two-tier Clos: %d leaves x %d hosts, %d spines, web-search flows at 80%% load\n",
		cfg.Leaves, cfg.HostsPerLeaf, cfg.Spines)

	for _, pol := range []experiments.RoutingPolicy{
		experiments.RouteECMP, experiments.RouteMinUtil, experiments.RouteMultiDim,
	} {
		net, err := experiments.BuildRouting(cfg, pol)
		if err != nil {
			return err
		}
		if err := offer(cfg, net); err != nil {
			return err
		}
		deadline := sim.Time(0)
		for net.ActiveFlows() > 0 {
			deadline += 100 * sim.Millisecond
			net.Sched.RunUntil(deadline)
		}
		var fct stats.Sample
		for _, rec := range net.Records() {
			fct.Add(float64(rec.FCT()) / float64(sim.Microsecond))
		}
		fmt.Fprintf(w, "  %-18s mean FCT %6.0f µs   p99 %7.0f µs\n",
			pol, fct.Mean(), fct.Percentile(99))
	}
	return nil
}

func offer(cfg experiments.NetConfig, net interface {
	StartFlow(src, dst int, bytes int64, at sim.Time) (int64, error)
}) error {
	// Deterministic all-to-all mix: every host sends to a rotating set of
	// peers so both policies see identical traffic.
	hosts := cfg.Leaves * cfg.HostsPerLeaf
	at := sim.Time(0)
	for i := 0; i < cfg.Flows; i++ {
		src := i % hosts
		dst := (src + 1 + i/hosts) % hosts
		if dst == src {
			dst = (dst + 1) % hosts
		}
		size := int64(15000 + 40000*(i%7))
		if _, err := net.StartFlow(src, dst, size, at); err != nil {
			return err
		}
		at += 40 * sim.Microsecond
	}
	return nil
}
