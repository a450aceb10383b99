// Command netsim runs one packet-level network simulation and prints flow
// statistics: topology (two-tier Clos or k-ary fat tree), routing policy
// (per-flow ECMP, min-util, multi-dimensional, or per-packet min-queue /
// DRILL), load, and workload scale are all selectable. It is the standalone
// driver behind the Figure 17/18 experiments, for interactive exploration.
//
// Usage:
//
//	netsim -policy multidim -load 0.8
//	netsim -topo fattree -k 4 -policy ecmp -flows 500
//	netsim -policy drill -d 2 -m 1 -load 0.9
//
// Failure sweeps (§ graceful degradation) inject a spine or leaf-uplink
// failure mid-run and report fault and control-plane counters:
//
//	netsim -policy multidim -fail spine -fail-spine 0
//	netsim -policy minutil -fail uplink -fail-leaf 1 -ctrl-drop 0.1
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	stdnet "net"
	"net/http"
	"os"
	"time"

	"repro/internal/experiments"
	"repro/internal/netsim"
	"repro/internal/netsim/topology"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/workload"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	switch {
	case err == nil:
	case errors.Is(err, flag.ErrHelp):
	case errors.As(err, new(flagError)):
		os.Exit(2) // the flag package has printed the error and usage
	default:
		fmt.Fprintf(os.Stderr, "netsim: %v\n", err)
		os.Exit(1)
	}
}

// flagError is a command-line parse failure, already reported on stderr.
type flagError struct{ error }

// run parses args and runs one simulation, writing its report to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet(os.Args[0], flag.ContinueOnError)
	topo := fs.String("topo", "clos", "topology: clos | fattree")
	kAry := fs.Int("k", 4, "fat tree arity (fattree only)")
	leaves := fs.Int("leaves", 4, "leaf switches (clos only)")
	spines := fs.Int("spines", 3, "spine switches (clos only)")
	hostsPerLeaf := fs.Int("hosts", 6, "hosts per leaf (clos only)")
	pol := fs.String("policy", "ecmp", "policy: ecmp | minutil | multidim | minq | drill")
	coreDelay := fs.Duration("core-delay", 0, "agg-core link propagation delay override (fattree)")
	load := fs.Float64("load", 0.8, "offered load in (0,1]")
	flows := fs.Int("flows", 400, "number of flows")
	scale := fs.Float64("scale", 0.5, "flow size scale vs web-search distribution")
	seed := fs.Int64("seed", 1, "simulation seed")
	d := fs.Int("d", 2, "DRILL d")
	m := fs.Int("m", 1, "DRILL m")
	metrics := fs.String("metrics", "", "serve /metrics and /debug/vars on this address (e.g. :9090)")
	pprofOn := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof on the -metrics address")
	hold := fs.Duration("hold", 0, "keep the process (and the metrics endpoint) alive this long after the run")
	failMode := fs.String("fail", "", "failure scenario: spine | uplink (clos only)")
	failSpine := fs.Int("fail-spine", 0, "spine to fail")
	failLeaf := fs.Int("fail-leaf", 0, "leaf losing its uplink (-fail uplink)")
	failAt := fs.Duration("fail-at", 2*time.Millisecond, "simulated time of the fault")
	recoverAt := fs.Duration("recover-at", 30*time.Millisecond, "simulated time of the recovery")
	detect := fs.Duration("detect", 100*time.Microsecond, "control-plane failure-detection latency")
	syncEvery := fs.Duration("sync", 5*time.Millisecond, "control-plane reconciliation interval (0 disables)")
	ctrlDrop := fs.Float64("ctrl-drop", 0.05, "control-plane update drop probability")
	ctrlDelay := fs.Duration("ctrl-delay", 200*time.Microsecond, "control-plane update delay bound")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return flagError{err}
	}

	var failCfg *experiments.FailureConfig
	switch *failMode {
	case "":
	case "spine", "uplink":
		failCfg = &experiments.FailureConfig{
			Scenario:       experiments.FailSpine,
			Spine:          *failSpine,
			Leaf:           *failLeaf,
			FailAt:         sim.Time(failAt.Nanoseconds()),
			RecoverAt:      sim.Time(recoverAt.Nanoseconds()),
			DetectDelay:    sim.Time(detect.Nanoseconds()),
			SyncInterval:   sim.Time(syncEvery.Nanoseconds()),
			UpdateDropProb: *ctrlDrop,
			UpdateMaxDelay: sim.Time(ctrlDelay.Nanoseconds()),
		}
		if *failMode == "uplink" {
			failCfg.Scenario = experiments.FailLeafUplink
		}
	default:
		return fmt.Errorf("unknown -fail mode %q", *failMode)
	}

	return simulate(stdout, *topo, *kAry, *leaves, *spines, *hostsPerLeaf, *pol, *load, *flows, *scale, *seed, *d, *m, *metrics, *pprofOn, *hold, failCfg, sim.Time(coreDelay.Nanoseconds()))
}

// serveMetrics binds addr synchronously (so a bad address fails the run
// up front) and serves the telemetry mux in the background for the life of
// the process.
func serveMetrics(stdout io.Writer, addr string, pprof bool, reg *telemetry.Registry) error {
	ln, err := stdnet.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "metrics: serving /metrics and /debug/vars on http://%s\n", ln.Addr())
	go func() {
		mux := telemetry.NewMux(telemetry.MuxConfig{Registry: reg, Pprof: pprof})
		if err := http.Serve(ln, mux); err != nil {
			fmt.Fprintf(os.Stderr, "netsim: metrics server: %v\n", err)
		}
	}()
	return nil
}

func simulate(stdout io.Writer, topo string, kAry, leaves, spines, hostsPerLeaf int, pol string,
	load float64, flows int, scale float64, seed int64, d, m int,
	metricsAddr string, pprof bool, hold time.Duration, failCfg *experiments.FailureConfig,
	coreDelay sim.Time) error {

	cfg := experiments.DefaultNetConfig(seed)
	cfg.Leaves, cfg.Spines, cfg.HostsPerLeaf = leaves, spines, hostsPerLeaf
	cfg.Flows, cfg.SizeScale = flows, scale
	cfg.DrillD, cfg.DrillM = d, m
	if failCfg != nil {
		failCfg.Net = cfg
		if topo != "clos" {
			return fmt.Errorf("failure scenarios need -topo clos")
		}
	}

	buildRouting := func(p experiments.RoutingPolicy) (*netsim.Network, *experiments.FailureProbe, error) {
		if failCfg != nil {
			return experiments.BuildRoutingFailure(*failCfg, p)
		}
		n, err := experiments.BuildRouting(cfg, p)
		return n, nil, err
	}
	buildPortLB := func(p experiments.PortPolicy) (*netsim.Network, *experiments.FailureProbe, error) {
		if failCfg != nil {
			return experiments.BuildPortLBFailure(*failCfg, p)
		}
		n, err := experiments.BuildPortLB(cfg, p)
		return n, nil, err
	}

	var net *netsim.Network
	var probe *experiments.FailureProbe
	var err error
	switch {
	case topo == "fattree":
		if pol != "ecmp" {
			return fmt.Errorf("fat tree currently runs ECMP only")
		}
		if net, err = buildFatTree(seed, kAry, coreDelay); err != nil {
			return err
		}
		cfg.Leaves = kAry // hosts calculation below uses cfg fields
		cfg.HostsPerLeaf = kAry * kAry / 4
	case pol == "ecmp":
		net, probe, err = buildRouting(experiments.RouteECMP)
	case pol == "minutil":
		net, probe, err = buildRouting(experiments.RouteMinUtil)
	case pol == "multidim":
		net, probe, err = buildRouting(experiments.RouteMultiDim)
	case pol == "minq":
		net, probe, err = buildPortLB(experiments.PortMinQueue)
	case pol == "drill":
		net, probe, err = buildPortLB(experiments.PortDRILL)
	default:
		return fmt.Errorf("unknown policy %q", pol)
	}
	if err != nil {
		return err
	}
	if metricsAddr != "" {
		reg := telemetry.NewRegistry()
		net.RegisterTelemetry(reg, "thanos_netsim")
		if probe != nil {
			probe.RegisterTelemetry(reg, "thanos_netsim")
		}
		if err := serveMetrics(stdout, metricsAddr, pprof, reg); err != nil {
			return err
		}
	}

	hosts := len(net.Hosts)
	ws := workload.MustWebSearch()
	pa, err := workload.NewPoissonArrivals(load, hosts, net.Config().LinkBps, ws.MeanBytes()*scale)
	if err != nil {
		return err
	}
	r := net.Sched.Rand()
	at := sim.Time(0)
	for i := 0; i < flows; i++ {
		src, dst := r.Intn(hosts), r.Intn(hosts)
		for dst == src {
			dst = r.Intn(hosts)
		}
		size := int64(float64(ws.Sample(r)) * scale)
		if size < 1 {
			size = 1
		}
		if _, err := net.StartFlow(src, dst, size, at); err != nil {
			return fmt.Errorf("starting flow %d: %w", i, err)
		}
		at += sim.Time(pa.NextGapSec(r) * float64(sim.Second))
	}

	start := time.Now()
	deadline := sim.Time(0)
	for net.ActiveFlows() > 0 {
		deadline += 100 * sim.Millisecond
		net.Sched.RunUntil(deadline)
		if deadline > 100*sim.Second {
			return fmt.Errorf("flows did not complete (%d left)", net.ActiveFlows())
		}
	}
	simEnd := net.Sched.Now()
	elapsed := time.Since(start)

	var fct stats.Sample
	var bytes int64
	for _, rec := range net.Records() {
		fct.Add(float64(rec.FCT()) / float64(sim.Microsecond))
		bytes += rec.Bytes
	}
	fmt.Fprintf(stdout, "topology %s, policy %s, load %.0f%%, %d hosts, %d flows, %.1f MB\n",
		topo, pol, load*100, hosts, flows, float64(bytes)/1e6)
	fmt.Fprintf(stdout, "FCT µs: mean %.0f  p50 %.0f  p90 %.0f  p99 %.0f  max %.0f\n",
		fct.Mean(), fct.Percentile(50), fct.Percentile(90), fct.Percentile(99), fct.Max())
	var drops uint64
	for _, sw := range net.Switches {
		for p := 0; p < sw.NumPorts(); p++ {
			drops += sw.Port(p).Drops()
		}
	}
	fmt.Fprintf(stdout, "switch drops: %d, simulated time: %v, wall clock: %v\n", drops, simEnd, elapsed.Round(time.Millisecond))
	if probe != nil {
		c := probe.Injector.Counts()
		fmt.Fprintf(stdout, "faults: injected %d, recovered %d, fault drops %d, reroutes %d\n",
			c.Injected, c.Recovered, probe.FaultDrops(), probe.Reroutes())
		fmt.Fprintf(stdout, "control plane: detections %d, syncs %d, updates delivered %d / dropped %d / delayed %d\n",
			probe.Detections(), probe.Syncs(),
			probe.Control.Delivered(), probe.Control.Dropped(), probe.Control.Delayed())
	}
	if hold > 0 {
		fmt.Fprintf(stdout, "holding %v for metric scrapes...\n", hold)
		time.Sleep(hold)
	}
	return nil
}

func buildFatTree(seed int64, k int, coreDelay sim.Time) (*netsim.Network, error) {
	net, err := netsim.New(seed, netsim.DefaultConfig())
	if err != nil {
		return nil, err
	}
	ft, err := topology.NewFatTree(net, k)
	if err != nil {
		return nil, err
	}
	if coreDelay > 0 {
		ft.SetCorePropDelay(coreDelay)
	}
	return net, nil
}
