package fault_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/netsim"
	"repro/internal/netsim/topology"
	"repro/internal/sim"
)

// faultedRun drives a testbed Clos through a seeded storm of leaf-uplink
// flaps and spine kills, applied by plain Sched.At events, under a seeded
// all-to-all workload, and renders every flow record plus the fault and
// retransmission counters. The fault schedule and the workload are both
// drawn from the network's own seeded rand.
func faultedRun(t *testing.T, seed int64) string {
	t.Helper()
	n, err := netsim.New(seed, netsim.DefaultConfig())
	if err != nil {
		t.Fatalf("netsim.New: %v", err)
	}
	clos, err := topology.Testbed(n)
	if err != nil {
		t.Fatalf("topology.Testbed: %v", err)
	}

	const horizon = 50 * sim.Millisecond
	r := n.Sched.Rand()
	injected := 0
	// downUp schedules one outage of up to 2ms starting in the horizon.
	downUp := func(set func(bool)) {
		at := sim.Time(r.Int63n(int64(horizon)))
		up := at + sim.Time(1+r.Int63n(int64(2*sim.Millisecond)))
		n.Sched.At(at, func() { set(true) })
		n.Sched.At(up, func() { set(false) })
		injected++
	}
	// Fault domain: every leaf's uplink to spine 0, plus both spines.
	for _, leaf := range clos.Leaves {
		p := leaf.Port(clos.UplinkPort(0))
		for i := 0; i < 2; i++ {
			downUp(p.SetLinkDown)
		}
	}
	for _, spine := range clos.Spines {
		downUp(spine.SetFailed)
	}

	hosts := clos.NumHosts()
	mtu := int64(n.Config().MTU)
	for i := 0; i < 60; i++ {
		src := r.Intn(hosts)
		dst := r.Intn(hosts)
		if dst == src {
			dst = (src + 1) % hosts
		}
		bytes := (1 + int64(r.Intn(32))) * mtu
		at := sim.Time(r.Int63n(int64(horizon)))
		if _, err := n.StartFlow(src, dst, bytes, at); err != nil {
			t.Fatalf("StartFlow: %v", err)
		}
	}

	deadline := horizon
	for n.ActiveFlows() > 0 {
		deadline += 100 * sim.Millisecond
		n.Sched.RunUntil(deadline)
		if deadline > 20*sim.Second {
			t.Fatal("flows never completed after fault horizon")
		}
	}

	var sb strings.Builder
	for _, rec := range n.Records() {
		fmt.Fprintf(&sb, "f%d %d->%d %dB [%d,%d];", rec.FlowID, rec.Src, rec.Dst, rec.Bytes, rec.Start, rec.End)
	}
	var retx uint64
	for _, h := range n.Hosts {
		rto, fast := h.Retransmits()
		retx += rto + fast
	}
	fmt.Fprintf(&sb, " injected=%d retx=%d faultDrops=%d", injected, retx, n.FaultDrops())
	return sb.String()
}

// TestEndToEndDeterminism: the same seed must reproduce the identical
// end-to-end result under link and switch faults — every flow completion
// time and fault counter — including when several seeds run concurrently
// as parallel subtests, and different seeds must give different results.
func TestEndToEndDeterminism(t *testing.T) {
	for _, seed := range []int64{1, 7, 1234} {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			a := faultedRun(t, seed)
			b := faultedRun(t, seed)
			if a != b {
				t.Fatalf("seed %d produced different end-to-end results:\n%s\nvs\n%s", seed, a, b)
			}
			if strings.Contains(a, "faultDrops=0") {
				t.Fatal("no packet met a fault; test is vacuous")
			}
		})
	}
	t.Run("seeds-differ", func(t *testing.T) {
		t.Parallel()
		if faultedRun(t, 1) == faultedRun(t, 2) {
			t.Fatal("different seeds produced identical end-to-end results")
		}
	})
}
