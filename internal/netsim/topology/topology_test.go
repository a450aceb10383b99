package topology

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
)

func TestClosValidation(t *testing.T) {
	n, _ := netsim.New(1, netsim.DefaultConfig())
	if _, err := NewTwoTierClos(n, 1, 2, 2); err == nil {
		t.Error("1 leaf should fail")
	}
	if _, err := NewTwoTierClos(n, 4, 0, 2); err == nil {
		t.Error("0 spines should fail")
	}
	c, err := NewTwoTierClos(n, 4, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewTwoTierClos(n, 4, 2, 2); err == nil {
		t.Error("building on a non-empty network should fail")
	}
	if c.NumHosts() != 8 {
		t.Fatalf("hosts = %d", c.NumHosts())
	}
}

func TestTestbedShape(t *testing.T) {
	n, _ := netsim.New(1, netsim.DefaultConfig())
	c, err := Testbed(n)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 15: six switches (4 leaves + 2 spines), eight hosts.
	if len(c.Leaves) != 4 || len(c.Spines) != 2 {
		t.Fatalf("shape: %d leaves, %d spines", len(c.Leaves), len(c.Spines))
	}
	if len(n.Hosts) != 8 || len(n.Switches) != 6 {
		t.Fatalf("%d hosts, %d switches", len(n.Hosts), len(n.Switches))
	}
	if c.LeafOf(5).ID() != c.Leaves[2].ID() {
		t.Fatal("LeafOf wrong")
	}
	if c.UplinkPort(1) != 3 {
		t.Fatalf("UplinkPort(1) = %d", c.UplinkPort(1))
	}
}

func TestClosAllPairsConnectivity(t *testing.T) {
	n, _ := netsim.New(1, netsim.DefaultConfig())
	c, err := NewTwoTierClos(n, 3, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	flows := 0
	for src := 0; src < c.NumHosts(); src++ {
		for dst := 0; dst < c.NumHosts(); dst++ {
			if src == dst {
				continue
			}
			n.StartFlow(src, dst, 4500, 0)
			flows++
		}
	}
	n.Sched.Run()
	if got := len(n.Records()); got != flows {
		t.Fatalf("%d of %d flows completed", got, flows)
	}
}

func TestFatTreeValidation(t *testing.T) {
	n, _ := netsim.New(1, netsim.DefaultConfig())
	if _, err := NewFatTree(n, 3); err == nil {
		t.Error("odd k should fail")
	}
	if _, err := NewFatTree(n, 0); err == nil {
		t.Error("k=0 should fail")
	}
}

func TestFatTreeShape(t *testing.T) {
	n, _ := netsim.New(1, netsim.DefaultConfig())
	ft, err := NewFatTree(n, 4)
	if err != nil {
		t.Fatal(err)
	}
	if ft.NumHosts() != 16 {
		t.Fatalf("hosts = %d, want 16", ft.NumHosts())
	}
	// k=4: 4 pods × (2 edge + 2 agg) + 4 cores = 20 switches.
	if len(n.Switches) != 20 {
		t.Fatalf("switches = %d, want 20", len(n.Switches))
	}
	if len(n.Hosts) != 16 {
		t.Fatalf("hosts wired = %d", len(n.Hosts))
	}
	if ft.EdgeOf(0).ID() != ft.Edges[0][0].ID() || ft.EdgeOf(15).ID() != ft.Edges[3][1].ID() {
		t.Fatal("EdgeOf wrong")
	}
}

func TestFatTreeAllPairsConnectivity(t *testing.T) {
	n, _ := netsim.New(1, netsim.DefaultConfig())
	ft, err := NewFatTree(n, 4)
	if err != nil {
		t.Fatal(err)
	}
	flows := 0
	for src := 0; src < ft.NumHosts(); src++ {
		for dst := 0; dst < ft.NumHosts(); dst++ {
			if src == dst {
				continue
			}
			n.StartFlow(src, dst, 3000, 0)
			flows++
		}
	}
	n.Sched.Run()
	if got := len(n.Records()); got != flows {
		t.Fatalf("%d of %d flows completed", got, flows)
	}
}

func TestFatTreeK6Connectivity(t *testing.T) {
	n, _ := netsim.New(2, netsim.DefaultConfig())
	ft, err := NewFatTree(n, 6)
	if err != nil {
		t.Fatal(err)
	}
	if ft.NumHosts() != 54 {
		t.Fatalf("hosts = %d, want 54", ft.NumHosts())
	}
	r := rand.New(rand.NewSource(3))
	flows := 0
	for i := 0; i < 200; i++ {
		src, dst := r.Intn(54), r.Intn(54)
		if src == dst {
			continue
		}
		n.StartFlow(src, dst, int64(1500*(1+r.Intn(10))), sim.Time(i)*sim.Microsecond)
		flows++
	}
	n.Sched.Run()
	if got := len(n.Records()); got != flows {
		t.Fatalf("%d of %d flows completed", got, flows)
	}
}

func TestClosCrossTrafficUsesAllUplinks(t *testing.T) {
	n, _ := netsim.New(4, netsim.DefaultConfig())
	c, err := NewTwoTierClos(n, 2, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f < 60; f++ {
		n.StartFlow(f%4, 4+f%4, 15000, sim.Time(f)*sim.Microsecond)
	}
	n.Sched.Run()
	used := 0
	for s := 0; s < 4; s++ {
		if c.Leaves[0].Port(c.UplinkPort(s)).SentBytes() > 0 {
			used++
		}
	}
	if used < 3 {
		t.Fatalf("ECMP used only %d of 4 uplinks", used)
	}
}

// TestClosCandidateOrder pins every candidate list of a Clos and a fat tree,
// order included: a remote destination's uplinks in port order, a local one
// its single downlink. The routers index these lists (ECMP's flow hash,
// PathRouter's first-uplink fallback), so a list whose order changed from
// one build to the next would change routes from one run to the next. Each
// topology is built 16 times, so an order drawn afresh per build (say, from
// a map) fails with near certainty.
func TestClosCandidateOrder(t *testing.T) {
	check := func(sw *netsim.Switch, name string, dst int, want []int) {
		t.Helper()
		if got := sw.Candidates(dst); !slices.Equal(got, want) {
			t.Fatalf("%s: candidates(%d) = %v, want %v", name, dst, got, want)
		}
	}
	for build := 0; build < 16; build++ {
		n, _ := netsim.New(1, netsim.DefaultConfig())
		c, err := NewTwoTierClos(n, 4, 3, 2)
		if err != nil {
			t.Fatal(err)
		}
		for l, leaf := range c.Leaves {
			for dst := 0; dst < c.NumHosts(); dst++ {
				want := []int{2, 3, 4}
				if dst/2 == l {
					want = []int{dst % 2}
				}
				check(leaf, fmt.Sprintf("leaf %d", l), dst, want)
			}
		}
		for s, spine := range c.Spines {
			for dst := 0; dst < c.NumHosts(); dst++ {
				check(spine, fmt.Sprintf("spine %d", s), dst, []int{dst / 2})
			}
		}

		n, _ = netsim.New(1, netsim.DefaultConfig())
		ft, err := NewFatTree(n, 6)
		if err != nil {
			t.Fatal(err)
		}
		up := []int{3, 4, 5}
		for dst := 0; dst < ft.NumHosts(); dst++ {
			dp, de, dh := ft.locate(dst)
			for p := 0; p < ft.K; p++ {
				for i := 0; i < ft.K/2; i++ {
					want := up
					if p == dp && i == de {
						want = []int{dh}
					}
					check(ft.Edges[p][i], fmt.Sprintf("edge %d/%d", p, i), dst, want)
					want = up
					if p == dp {
						want = []int{de}
					}
					check(ft.Aggs[p][i], fmt.Sprintf("agg %d/%d", p, i), dst, want)
				}
			}
			for ci, core := range ft.Cores {
				check(core, fmt.Sprintf("core %d", ci), dst, []int{dp})
			}
		}
	}
}
