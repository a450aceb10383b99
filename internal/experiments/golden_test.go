package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// Golden identity for serial runs. The serial-vs-parallel suites compare two
// drivers over one scheduler, so a reorder both drivers share passes them;
// these pin event counts and end-state digests recorded at the commit before
// the near heap became a timing wheel (PR 22), so any change to the
// (at, pri, seq) execution order — or to what the events do — fails here.
// A change that alters simulation behaviour on purpose re-records them and
// says so.

// goldenDigest hashes the observable end state the benchmark's sim_digest
// covers: flow records plus every port, switch and host counter.
func goldenDigest(net *netsim.Network) string {
	h := sha256.New()
	for _, r := range net.Records() {
		fmt.Fprintf(h, "flow %d %d->%d %dB [%d,%d]\n", r.FlowID, r.Src, r.Dst, r.Bytes, int64(r.Start), int64(r.End))
	}
	for _, sw := range net.Switches {
		fmt.Fprintf(h, "sw%d fail=%v faultDrops=%d\n", sw.ID(), sw.Failed(), sw.FaultDrops())
		for i := 0; i < sw.NumPorts(); i++ {
			p := sw.Port(i)
			fmt.Fprintf(h, "  p%d sent=%d/%dB recv=%d drop=%d fault=%d q=%d util=%x loss=%x\n",
				i, p.Sent(), p.SentBytes(), p.Recvs(), p.Drops(), p.FaultDrops(), p.QueueLen(), p.UtilEWMA(), p.LossEWMA())
		}
	}
	for _, host := range net.Hosts {
		rto, fast := host.Retransmits()
		nic := host.NIC()
		fmt.Fprintf(h, "h%d rto=%d fast=%d sent=%d recv=%d drop=%d\n", host.ID(), rto, fast, nic.Sent(), nic.Recvs(), nic.Drops())
	}
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// runGolden drives net to completion in 5 µs RunUntil slices — the
// benchmark's slice, so deadlines keep landing between pending events — and
// returns the number of events executed.
func runGolden(t *testing.T, net *netsim.Network) int {
	t.Helper()
	events := 0
	for deadline := sim.Time(0); net.ActiveFlows() > 0; {
		if deadline > sim.Second {
			t.Fatalf("%d flows did not complete", net.ActiveFlows())
		}
		deadline += 5 * sim.Microsecond
		events += net.Sched.RunUntil(deadline)
	}
	return events
}

func TestGoldenSerialClosMultiDim(t *testing.T) {
	cfg := DefaultNetConfig(7)
	cfg.Flows = 60
	cfg.SizeScale = 0.1
	net, err := BuildRouting(cfg, RouteMultiDim)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := offerTraffic(cfg, net, 0.8); err != nil {
		t.Fatal(err)
	}
	events := runGolden(t, net)
	const wantEvents, wantDigest = 143700, "6c2fc28335d179b3b00d092715be9175"
	if got := goldenDigest(net); events != wantEvents || got != wantDigest {
		t.Fatalf("events %d digest %s, golden %d %s", events, got, wantEvents, wantDigest)
	}
}

// TestGoldenSerialFatTreeLongCore pins a hop longer than the scheduler's
// near span: a k=4 fat tree whose agg–core links take 10 µs.
func TestGoldenSerialFatTreeLongCore(t *testing.T) {
	cfg := ScaleConfig{K: 4, Flows: 120, MaxBytes: 48 * 1500, Seed: 11, CoreDelay: 10 * sim.Microsecond}
	net, _, err := buildScaleNet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := offerScaleTraffic(net, cfg); err != nil {
		t.Fatal(err)
	}
	net.StartMetricTicks()
	events := runGolden(t, net)
	const wantEvents, wantDigest = 63132, "37cea8045066f791d0c35925b476ed02"
	if got := goldenDigest(net); events != wantEvents || got != wantDigest {
		t.Fatalf("events %d digest %s, golden %d %s", events, got, wantEvents, wantDigest)
	}
}
