package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/experiments"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// simCap is the simulated-time horizon: flows still active then are failed.
const simCap = 100 * sim.Second

// simOut is one simulator run.
type simOut struct {
	hostNs    int64
	events    int64
	stepUs    []float64 // host time per step
	pending   []float64 // scheduler queue depth at slice ends
	cpuNs     int64     // process user+sys CPU
	mallocs   uint64
	gcPauseNs uint64
	gcCycles  uint32

	flowsOffered, flowsDone int
	forwards                uint64 // packets received by switches: one forwarding decision each
	delivered               uint64 // packets received by hosts
	drops, retransmits      uint64
	simTimeNs               int64
	digest                  string
	fctMeanUs, fctP99Us     float64 // simulated time

	// Traced runs only: the wrapped public hooks of the leaf switches.
	fwdCalls, fwdNs   int64
	tickCalls, tickNs int64
	queueUpdates      int64
}

// buildSim builds the Clos with RouteMultiDim on every leaf and offers the
// flow list. This is the simulator's set-up.
func buildSim(w *workloadSpec, seed int64, flows []flowSpec) (*netsim.Network, error) {
	cfg := experiments.DefaultNetConfig(seed)
	cfg.Leaves, cfg.Spines, cfg.HostsPerLeaf = w.Leaves, w.Spines, w.HostsPerLeaf
	cfg.Flows = len(flows)
	net, err := experiments.BuildRouting(cfg, experiments.RouteMultiDim)
	if err != nil {
		return nil, err
	}
	for i, f := range flows {
		if _, err := net.StartFlow(f.src, f.dst, f.bytes, sim.Time(f.atNs)); err != nil {
			return nil, fmt.Errorf("flow %d: %w", i, err)
		}
	}
	return net, nil
}

// wrapLeaves times the public hooks of every leaf from outside: Forward
// (policy decision + pin lookup), OnMetricTick (table refresh) and the queue
// tracker's OnChange (event-driven table update on an uplink queue).
func wrapLeaves(w *workloadSpec, net *netsim.Network, out *simOut) {
	for _, leaf := range net.Switches[:w.Leaves] {
		fwd := leaf.Forward
		leaf.Forward = func(pkt *netsim.Packet) int {
			t := time.Now()
			port := fwd(pkt)
			out.fwdNs += int64(time.Since(t))
			out.fwdCalls++
			return port
		}
		tick := leaf.OnMetricTick
		leaf.OnMetricTick = func() {
			t := time.Now()
			tick()
			out.tickNs += int64(time.Since(t))
			out.tickCalls++
		}
		change := leaf.Tracker.OnChange
		leaf.Tracker.OnChange = func(q int, n int64) {
			change(q, n)
			if q >= w.HostsPerLeaf {
				out.queueUpdates++
			}
		}
	}
}

// stepEvents is the simulator's step: this many consecutive scheduler events.
const stepEvents = 1000

// runSim drives the network to completion in slices of simulated time and
// times every step: the scheduler runs to a deadline, not to an event count,
// so a step ends with the first slice that completes stepEvents events and is
// charged its host time per stepEvents.
func runSim(w *workloadSpec, net *netsim.Network, offered int, traced bool) *simOut {
	out := &simOut{flowsOffered: offered}
	if traced {
		wrapLeaves(w, net, out)
	}
	out.stepUs = make([]float64, 0, 1<<14)
	out.pending = make([]float64, 0, 1<<14)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	u0 := readUsage()
	start := time.Now()
	stepStart, stepEv := start, 0
	deadline := sim.Time(0)
	for net.ActiveFlows() > 0 && deadline < simCap {
		deadline += sim.Time(w.SimSliceNs)
		ev := net.Sched.RunUntil(deadline)
		out.events += int64(ev)
		if stepEv += ev; stepEv >= stepEvents {
			now := time.Now()
			out.stepUs = append(out.stepUs, float64(now.Sub(stepStart))/1e3/float64(stepEv)*stepEvents)
			out.pending = append(out.pending, float64(net.Sched.Pending()))
			stepStart, stepEv = now, 0
		}
	}
	out.hostNs = int64(time.Since(start))
	out.cpuNs = readUsage().cpuNs - u0.cpuNs
	runtime.ReadMemStats(&m1)
	out.mallocs = m1.Mallocs - m0.Mallocs
	out.gcPauseNs = m1.PauseTotalNs - m0.PauseTotalNs
	out.gcCycles = m1.NumGC - m0.NumGC
	out.simTimeNs = int64(net.Sched.Now())
	out.summarize(net)
	return out
}

// summarize reads the public counters and hashes the complete observable
// end state: flow records plus every port, switch and host counter. Both
// sim_events and the digest must repeat exactly for a seed.
func (o *simOut) summarize(net *netsim.Network) {
	h := sha256.New()
	recs := net.Records()
	o.flowsDone = len(recs)
	fct := make([]float64, 0, len(recs))
	var sum float64
	for _, r := range recs {
		fmt.Fprintf(h, "flow %d %d->%d %dB [%d,%d]\n", r.FlowID, r.Src, r.Dst, r.Bytes, int64(r.Start), int64(r.End))
		us := float64(r.FCT()) / float64(sim.Microsecond)
		fct = append(fct, us)
		sum += us
	}
	if len(fct) > 0 {
		sort.Float64s(fct)
		o.fctMeanUs, o.fctP99Us = sum/float64(len(fct)), pctl(fct, 0.99)
	}
	for _, sw := range net.Switches {
		fmt.Fprintf(h, "sw%d fail=%v faultDrops=%d\n", sw.ID(), sw.Failed(), sw.FaultDrops())
		for i := 0; i < sw.NumPorts(); i++ {
			p := sw.Port(i)
			fmt.Fprintf(h, "  p%d sent=%d/%dB recv=%d drop=%d fault=%d q=%d util=%x loss=%x\n",
				i, p.Sent(), p.SentBytes(), p.Recvs(), p.Drops(), p.FaultDrops(), p.QueueLen(), p.UtilEWMA(), p.LossEWMA())
			o.forwards += p.Recvs()
			o.drops += p.Drops()
		}
	}
	for _, host := range net.Hosts {
		rto, fast := host.Retransmits()
		nic := host.NIC()
		fmt.Fprintf(h, "h%d rto=%d fast=%d sent=%d recv=%d drop=%d\n", host.ID(), rto, fast, nic.Sent(), nic.Recvs(), nic.Drops())
		o.delivered += nic.Recvs()
		o.drops += nic.Drops()
		o.retransmits += rto + fast
	}
	o.digest = hex.EncodeToString(h.Sum(nil)[:16])
}
