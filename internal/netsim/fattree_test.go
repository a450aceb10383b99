package netsim_test

// Fat-tree tests, in an external test package so they can drive real
// topologies.

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/netsim"
	"repro/internal/netsim/topology"
	"repro/internal/sim"
)

// buildFT builds a k-ary fat tree with the config defaults.
func buildFT(t testing.TB, seed int64, k int) (*netsim.Network, *topology.FatTree) {
	t.Helper()
	net, err := netsim.New(seed, netsim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ft, err := topology.NewFatTree(net, k)
	if err != nil {
		t.Fatal(err)
	}
	return net, ft
}

// offerRandom starts flows pre-run from the network's own seeded RNG.
func offerRandom(t testing.TB, net *netsim.Network, flows int) {
	t.Helper()
	r := net.Sched.Rand()
	hosts := len(net.Hosts)
	at := sim.Time(0)
	for i := 0; i < flows; i++ {
		src, dst := r.Intn(hosts), r.Intn(hosts)
		for dst == src {
			dst = r.Intn(hosts)
		}
		size := int64(1500 * (1 + r.Intn(40)))
		if _, err := net.StartFlow(src, dst, size, at); err != nil {
			t.Fatalf("StartFlow: %v", err)
		}
		at += sim.Time(r.Intn(20)) * sim.Microsecond
	}
}

// runToSettle drives the network until every flow completes, then on to a
// fixed settle horizon.
func runToSettle(t testing.TB, net *netsim.Network, settle sim.Time) {
	t.Helper()
	deadline := sim.Time(0)
	for net.ActiveFlows() > 0 {
		deadline += 10 * sim.Millisecond
		net.Sched.RunUntil(deadline)
		if deadline > settle {
			t.Fatalf("%d flows did not complete by %v", net.ActiveFlows(), settle)
		}
	}
	net.Sched.RunUntil(settle)
}

// TestConservationUnderFaultInterleaving: a seeded storm of
// mid-transmission link flips and a switch kill, scheduled the way
// fault.Injector's hooks apply them (SetLinkDown/SetFailed from events on
// Network.Sched), must never double-count or lose a packet. Every packet a
// port starts transmitting delivers exactly once (sent == peer recvs),
// queues and the event-driven trackers read empty at quiescence, and every
// flow completes.
func TestConservationUnderFaultInterleaving(t *testing.T) {
	net, ft := buildFT(t, 1234, 4)

	// Flap every agg uplink and edge uplink several times at pseudo-random
	// instants chosen to land inside active transmissions.
	r := rand.New(rand.NewSource(77))
	half := ft.K / 2
	setLink := func(p *netsim.Port, down bool, at sim.Time) {
		net.Sched.At(at, func() { p.SetLinkDown(down) })
	}
	for p := 0; p < ft.K; p++ {
		for a := 0; a < half; a++ {
			for _, sw := range []*netsim.Switch{ft.Aggs[p][a], ft.Edges[p][a]} {
				for port := half; port < ft.K; port++ {
					at := sim.Time(r.Intn(3000)) * sim.Microsecond
					for flip := 0; flip < 4; flip++ {
						setLink(sw.Port(port), flip%2 == 0, at)
						at += sim.Time(1+r.Intn(700)) * sim.Microsecond
					}
					// Leave the link up.
					setLink(sw.Port(port), false, at)
				}
			}
		}
	}
	killed := ft.Aggs[1][0]
	net.Sched.At(800*sim.Microsecond, func() { killed.SetFailed(true) })
	net.Sched.At(2500*sim.Microsecond, func() { killed.SetFailed(false) })

	offerRandom(t, net, 150)
	runToSettle(t, net, 200*sim.Millisecond)

	checkPort := func(where string, p *netsim.Port) {
		if p == nil || p.Peer() == nil {
			return
		}
		if p.Sent() != p.Peer().Recvs() {
			t.Errorf("%s: sent %d packets but peer received %d", where, p.Sent(), p.Peer().Recvs())
		}
		if p.QueueLen() != 0 {
			t.Errorf("%s: queue not drained at quiescence (%d)", where, p.QueueLen())
		}
	}
	for _, sw := range net.Switches {
		for i := 0; i < sw.NumPorts(); i++ {
			checkPort(fmt.Sprintf("sw%d port %d", sw.ID(), i), sw.Port(i))
			if l := sw.Tracker.Len(i); l != 0 {
				t.Errorf("sw%d tracker queue %d reads %d at quiescence", sw.ID(), i, l)
			}
		}
	}
	for _, h := range net.Hosts {
		checkPort(fmt.Sprintf("host %d nic", h.ID()), h.NIC())
	}
	if got := len(net.Records()); got != 150 {
		t.Fatalf("completed %d of 150 flows", got)
	}
}

func TestStartFlowValidation(t *testing.T) {
	net, _ := buildFT(t, 1, 4)
	cases := []struct {
		name             string
		src, dst         int
		bytes            int64
		at               sim.Time
		wantErrSubstring string
	}{
		{"src out of range", -1, 1, 100, 0, "out of range"},
		{"dst out of range", 0, 9999, 100, 0, "out of range"},
		{"self flow", 3, 3, 100, 0, "flow to self"},
		{"empty flow", 0, 1, 0, 0, "< 1"},
	}
	for _, c := range cases {
		if _, err := net.StartFlow(c.src, c.dst, c.bytes, c.at); err == nil || !strings.Contains(err.Error(), c.wantErrSubstring) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.wantErrSubstring)
		}
	}

	// The past-start-time regression: advance the clock, then ask for a
	// start in the past. Historically this panicked inside the event
	// kernel; now it is a descriptive error naming the API.
	net.Sched.RunUntil(5 * sim.Millisecond)
	if _, err := net.StartFlow(0, 1, 100, 1*sim.Millisecond); err == nil ||
		!strings.Contains(err.Error(), "StartFlow start time") {
		t.Errorf("past start: err = %v, want StartFlow boundary error", err)
	}

	// And a valid flow still works.
	if _, err := net.StartFlow(0, 1, 100, 6*sim.Millisecond); err != nil {
		t.Errorf("valid flow rejected: %v", err)
	}
}
