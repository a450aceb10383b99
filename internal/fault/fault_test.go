package fault_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/netsim"
	"repro/internal/netsim/topology"
	"repro/internal/sim"
)

func testConfig() fault.Config {
	return fault.Config{
		Horizon:    200 * sim.Millisecond,
		LinkMTTF:   40 * sim.Millisecond,
		LinkMTTR:   2 * sim.Millisecond,
		SwitchMTTF: 120 * sim.Millisecond,
		SwitchMTTR: 5 * sim.Millisecond,
	}
}

func testEntities() ([]fault.Link, []int) {
	links := []fault.Link{{Switch: 0, Port: 2}, {Switch: 1, Port: 2}, {Switch: 4, Port: 0}}
	switches := []int{4, 5}
	return links, switches
}

func TestKindString(t *testing.T) {
	want := map[fault.Kind]string{
		fault.LinkDown:      "link-down",
		fault.LinkUp:        "link-up",
		fault.SwitchFail:    "switch-fail",
		fault.SwitchRecover: "switch-recover",
		fault.Kind(99):      "Kind(99)",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), s)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*fault.Config)
	}{
		{"zero horizon", func(c *fault.Config) { c.Horizon = 0 }},
		{"negative mean", func(c *fault.Config) { c.LinkMTTF = -1 }},
		{"link mttf without mttr", func(c *fault.Config) { c.LinkMTTR = 0 }},
		{"switch mttr without mttf", func(c *fault.Config) { c.SwitchMTTF = 0 }},
	}
	for _, tc := range cases {
		cfg := testConfig()
		tc.mut(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate() accepted invalid config", tc.name)
		}
	}
	if err := testConfig().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

// TestNewPlanDeterministic is the schedule half of the determinism
// satellite: the same seed must yield a byte-identical plan, and different
// seeds must not.
func TestNewPlanDeterministic(t *testing.T) {
	links, switches := testEntities()
	gen := func(seed int64) fault.Plan {
		p, err := fault.NewPlan(testConfig(), sim.New(seed).Rand(), links, switches)
		if err != nil {
			t.Fatalf("NewPlan: %v", err)
		}
		return p
	}
	a, b := gen(7), gen(7)
	if len(a) == 0 {
		t.Fatal("empty plan; config should generate events")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different plans:\n%v\nvs\n%v", a, b)
	}
	if c := gen(8); reflect.DeepEqual(a, c) {
		t.Fatal("different seeds produced identical plans")
	}
}

func TestNewPlanSortedPairedAndBounded(t *testing.T) {
	links, switches := testEntities()
	cfg := testConfig()
	plan, err := fault.NewPlan(cfg, sim.New(3).Rand(), links, switches)
	if err != nil {
		t.Fatalf("NewPlan: %v", err)
	}
	var downs, ups, fails, recovers int
	for i, ev := range plan {
		if ev.At <= 0 || ev.At >= cfg.Horizon {
			t.Fatalf("event %d at %d outside (0, horizon)", i, ev.At)
		}
		if i > 0 && plan[i-1].At > ev.At {
			t.Fatalf("plan not sorted at %d", i)
		}
		switch ev.Kind {
		case fault.LinkDown:
			downs++
		case fault.LinkUp:
			ups++
		case fault.SwitchFail:
			fails++
		case fault.SwitchRecover:
			recovers++
		}
	}
	if downs == 0 {
		t.Fatal("no link faults generated")
	}
	if downs != ups || fails != recovers {
		t.Fatalf("unpaired faults: %d down/%d up, %d fail/%d recover", downs, ups, fails, recovers)
	}
}

func TestInjectorFiresPlanInOrder(t *testing.T) {
	sched := sim.New(1)
	in := fault.NewInjector(sched)
	plan := fault.Plan{
		{At: 10, Kind: fault.LinkDown, Link: fault.Link{Switch: 0, Port: 2}},
		{At: 20, Kind: fault.SwitchFail, Switch: 4},
		{At: 30, Kind: fault.LinkUp, Link: fault.Link{Switch: 0, Port: 2}},
		{At: 40, Kind: fault.SwitchRecover, Switch: 4},
	}
	var trace []string
	in.Arm(plan, fault.Hooks{
		Link: func(l fault.Link, down bool) {
			trace = append(trace, fmt.Sprintf("link %d/%d down=%v @%d", l.Switch, l.Port, down, sched.Now()))
		},
		Switch: func(id int, failed bool) {
			trace = append(trace, fmt.Sprintf("switch %d failed=%v @%d", id, failed, sched.Now()))
		},
	})
	sched.Run()
	want := []string{
		"link 0/2 down=true @10",
		"switch 4 failed=true @20",
		"link 0/2 down=false @30",
		"switch 4 failed=false @40",
	}
	if !reflect.DeepEqual(trace, want) {
		t.Fatalf("hook trace mismatch:\n got %v\nwant %v", trace, want)
	}
	c := in.Counts()
	if c.Injected != 2 || c.Recovered != 2 || c.LinkFaults != 1 || c.SwitchFail != 1 {
		t.Fatalf("counts = %+v", c)
	}
}

func TestControlChannelPassThrough(t *testing.T) {
	sched := sim.New(1)
	ch := fault.NewControlChannel(sched, sched.Rand(), 0, 0)
	ran := 0
	for i := 0; i < 100; i++ {
		ch.Deliver(func() { ran++ })
	}
	if ran != 100 {
		t.Fatalf("pass-through channel ran %d of 100 updates synchronously", ran)
	}
	if ch.Dropped() != 0 || ch.Delayed() != 0 || ch.Delivered() != 100 {
		t.Fatalf("counters: delivered=%d dropped=%d delayed=%d", ch.Delivered(), ch.Dropped(), ch.Delayed())
	}
}

func TestControlChannelDeterministicDropAndDelay(t *testing.T) {
	run := func(seed int64) string {
		sched := sim.New(seed)
		ch := fault.NewControlChannel(sched, sched.Rand(), 0.3, 50*sim.Microsecond)
		var trace []string
		for i := 0; i < 200; i++ {
			i := i
			ch.Deliver(func() { trace = append(trace, fmt.Sprintf("%d@%d", i, sched.Now())) })
		}
		sched.Run()
		return fmt.Sprintf("d=%d drop=%d delay=%d %s",
			ch.Delivered(), ch.Dropped(), ch.Delayed(), strings.Join(trace, ","))
	}
	a, b := run(42), run(42)
	if a != b {
		t.Fatalf("same seed produced different delivery traces:\n%s\nvs\n%s", a, b)
	}
	if run(43) == a {
		t.Fatal("different seeds produced identical delivery traces")
	}
	sched := sim.New(42)
	ch := fault.NewControlChannel(sched, sched.Rand(), 0.3, 50*sim.Microsecond)
	for i := 0; i < 200; i++ {
		ch.Deliver(func() {})
	}
	sched.Run()
	if ch.Dropped() == 0 || ch.Delayed() == 0 {
		t.Fatalf("lossy channel never dropped (%d) or delayed (%d)", ch.Dropped(), ch.Delayed())
	}
	if ch.Delivered()+ch.Dropped() != 200 {
		t.Fatalf("delivered %d + dropped %d != 200 after drain", ch.Delivered(), ch.Dropped())
	}
}

// faultedRun executes one end-to-end simulation: the Figure 15 testbed under
// a seeded fault plan (links and spines failing and recovering) with a
// seeded workload, and returns a full signature of the result — every flow
// completion time, the fault-drop counters, and the injector counts.
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

	// Fault domain: every leaf's uplink to spine 0, plus both spines.
	var links []fault.Link
	for l := range clos.Leaves {
		links = append(links, fault.Link{Switch: l, Port: clos.UplinkPort(0)})
	}
	switches := []int{len(clos.Leaves), len(clos.Leaves) + 1} // spine ids follow leaves
	cfg := fault.Config{
		Horizon:    50 * sim.Millisecond,
		LinkMTTF:   20 * sim.Millisecond,
		LinkMTTR:   1 * sim.Millisecond,
		SwitchMTTF: 40 * sim.Millisecond,
		SwitchMTTR: 2 * sim.Millisecond,
	}
	plan, err := fault.NewPlan(cfg, n.Sched.Rand(), links, switches)
	if err != nil {
		t.Fatalf("NewPlan: %v", err)
	}

	in := fault.NewInjector(n.Sched)
	in.Arm(plan, fault.Hooks{
		Link: func(l fault.Link, down bool) {
			n.Switches[l.Switch].Port(l.Port).SetLinkDown(down)
		},
		Switch: func(id int, failed bool) {
			n.Switches[id].SetFailed(failed)
		},
	})

	// Seeded all-to-all workload drawn from the same scheduler rand.
	r := n.Sched.Rand()
	hosts := clos.NumHosts()
	mtu := int64(n.Config().MTU)
	for i := 0; i < 60; i++ {
		src := r.Intn(hosts)
		dst := r.Intn(hosts)
		if dst == src {
			dst = (src + 1) % hosts
		}
		bytes := (1 + int64(r.Intn(32))) * mtu
		at := sim.Time(r.Int63n(int64(cfg.Horizon)))
		n.StartFlow(src, dst, bytes, at)
	}

	deadline := cfg.Horizon
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
	c := in.Counts()
	fmt.Fprintf(&sb, " faults=%+v drops=%d faultDrops=%d",
		c, totalRetx(n), n.FaultDrops())
	return sb.String()
}

func totalRetx(n *netsim.Network) uint64 {
	var total uint64
	for _, h := range n.Hosts {
		rto, fast := h.Retransmits()
		total += rto + fast
	}
	return total
}

// TestEndToEndDeterminism is the second half of the determinism satellite:
// the same seed must reproduce the identical end-to-end result — every flow
// completion time and fault counter — including when
// several seeds run concurrently as parallel subtests (the sweep runner
// executes experiments exactly that way).
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
			if c := in(a, "faults={Injected:0"); c {
				t.Fatal("plan injected no faults; test is vacuous")
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

func in(s, sub string) bool { return strings.Contains(s, sub) }
