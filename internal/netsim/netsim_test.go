package netsim

import (
	"testing"

	"repro/internal/policy"
	"repro/internal/sim"
)

// twoHostNet wires host0 — sw — host1.
func twoHostNet(t testing.TB, cfg Config) (*Network, *Switch) {
	t.Helper()
	n, err := New(1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sw := n.AddSwitch(2)
	h0, h1 := n.AddHost(), n.AddHost()
	n.Connect(h0, sw, 0)
	n.Connect(h1, sw, 1)
	sw.SetCandidates(0, []int{0})
	sw.SetCandidates(1, []int{1})
	sw.Forward = ECMP(sw)
	return n, sw
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := good
	bad.MTU = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero MTU should fail")
	}
	bad = good
	bad.UtilAlpha = 1.5
	if err := bad.Validate(); err == nil {
		t.Error("bad alpha should fail")
	}
	bad = good
	bad.InitCwnd = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero cwnd should fail")
	}
}

func TestSingleFlowCompletes(t *testing.T) {
	n, _ := twoHostNet(t, DefaultConfig())
	const bytes = 150_000 // 100 MTU packets
	n.StartFlow(0, 1, bytes, 0)
	n.Sched.Run()
	recs := n.Records()
	if len(recs) != 1 {
		t.Fatalf("%d records, want 1", len(recs))
	}
	if n.ActiveFlows() != 0 {
		t.Fatal("flow still active")
	}
	r := recs[0]
	if r.Bytes != bytes || r.Src != 0 || r.Dst != 1 {
		t.Fatalf("record = %+v", r)
	}
	// Lower bound: serialization of all bytes at 10 Gb/s ≈ 120 µs.
	minFCT := sim.Time(float64(bytes*8) / 10e9 * float64(sim.Second))
	if r.FCT() < minFCT {
		t.Fatalf("FCT %v below physical lower bound %v", r.FCT(), minFCT)
	}
	// Sanity upper bound: should finish within a few ms on an idle path.
	if r.FCT() > 5*sim.Millisecond {
		t.Fatalf("FCT %v implausibly high for an idle 10G path", r.FCT())
	}
}

func TestTinyFlowOnePacket(t *testing.T) {
	n, _ := twoHostNet(t, DefaultConfig())
	n.StartFlow(0, 1, 1, 0) // one byte
	n.Sched.Run()
	if len(n.Records()) != 1 {
		t.Fatal("1-byte flow did not complete")
	}
	// Roughly one RTT: well under 100 µs.
	if fct := n.Records()[0].FCT(); fct > 100*sim.Microsecond {
		t.Fatalf("1-byte FCT = %v", fct)
	}
}

func TestManyFlowsShareFairly(t *testing.T) {
	n, _ := twoHostNet(t, DefaultConfig())
	for i := 0; i < 5; i++ {
		n.StartFlow(0, 1, 300_000, 0)
	}
	n.Sched.Run()
	if len(n.Records()) != 5 {
		t.Fatalf("%d of 5 flows completed", len(n.Records()))
	}
}

func TestCongestionRecovery(t *testing.T) {
	// Two senders into one receiver port with a tiny buffer: drops are
	// inevitable; every flow must still finish via retransmission.
	cfg := DefaultConfig()
	cfg.QueuePkts = 8
	n, err := New(1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sw := n.AddSwitch(3)
	hs := []*Host{n.AddHost(), n.AddHost(), n.AddHost()}
	for i, h := range hs {
		n.Connect(h, sw, i)
		sw.SetCandidates(i, []int{i})
	}
	sw.Forward = ECMP(sw)
	n.StartFlow(0, 2, 600_000, 0)
	n.StartFlow(1, 2, 600_000, 0)
	n.Sched.Run()
	if len(n.Records()) != 2 {
		t.Fatalf("%d of 2 flows completed", len(n.Records()))
	}
	if sw.Port(2).Drops() == 0 {
		t.Error("expected drops with an 8-packet buffer and 2:1 incast")
	}
}

func TestQueueTrackerFollowsPortOccupancy(t *testing.T) {
	n, sw := twoHostNet(t, DefaultConfig())
	n.StartFlow(0, 1, 150_000, 0)
	maxTracked := int64(0)
	prev := sw.Tracker.OnChange
	sw.Tracker.OnChange = func(q int, l int64) {
		if prev != nil {
			prev(q, l)
		}
		if q == 1 && l > maxTracked {
			maxTracked = l
		}
	}
	n.Sched.Run()
	if maxTracked == 0 {
		t.Fatal("tracker never observed queue buildup")
	}
}

func TestMetricRefreshEWMA(t *testing.T) {
	n, sw := twoHostNet(t, DefaultConfig())
	n.StartFlow(0, 1, 1_500_000, 0)
	n.StartMetricTicks()
	var peakUtil float64
	sw.OnMetricTick = func() {
		if u := sw.Port(1).UtilEWMA(); u > peakUtil {
			peakUtil = u
		}
	}
	n.Sched.RunUntil(3 * sim.Millisecond)
	if peakUtil < 0.3 {
		t.Fatalf("peak util EWMA = %.2f; a saturating flow should drive it up", peakUtil)
	}
	if peakUtil > 1.0 {
		t.Fatalf("util EWMA %.2f above 1", peakUtil)
	}
}

func TestECMPDeterministicPerFlow(t *testing.T) {
	n, err := New(1, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sw := n.AddSwitch(4)
	fwd := ECMP(sw)
	sw.SetCandidates(9, []int{1, 2, 3})
	p := &Packet{FlowID: 77, Dst: 9}
	first := fwd(p)
	for i := 0; i < 10; i++ {
		if fwd(p) != first {
			t.Fatal("ECMP not stable for a flow")
		}
	}
	// Different flows spread across candidates.
	seen := map[int]bool{}
	for f := int64(0); f < 50; f++ {
		seen[fwd(&Packet{FlowID: f, Dst: 9})] = true
	}
	if len(seen) < 2 {
		t.Fatal("ECMP not spreading flows")
	}
}

func TestThanosModuleDecide(t *testing.T) {
	schema := policy.Schema{Attrs: []string{"util", "queue", "loss"}}
	pol := policy.MustParse(`
out best = min(table, util)
`)
	m, err := policy.NewModule(8, schema, pol)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.Decide(); ok {
		t.Fatal("empty table should yield no decision")
	}
	if err := m.Upsert(2, []int64{500, 3, 0}); err != nil {
		t.Fatal(err)
	}
	if err := m.Upsert(5, []int64{100, 9, 0}); err != nil {
		t.Fatal(err)
	}
	id, ok := m.Decide()
	if !ok || id != 5 {
		t.Fatalf("Decide = %d, %v; want 5 (min util)", id, ok)
	}
	// Refresh metrics and decide again.
	if err := m.Upsert(5, []int64{900, 9, 0}); err != nil {
		t.Fatal(err)
	}
	if id, _ := m.Decide(); id != 2 {
		t.Fatalf("after update Decide = %d, want 2", id)
	}
}

func TestPathRouterPinsFlows(t *testing.T) {
	// Leaf with 2 uplinks; policy prefers min util. Flows must pin.
	cfg := DefaultConfig()
	n, err := New(1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	leaf := n.AddSwitch(3) // port 0: host, ports 1,2: uplinks
	h := n.AddHost()
	n.Connect(h, leaf, 0)
	leaf.SetCandidates(1, []int{1, 2})

	schema := policy.Schema{Attrs: []string{"util"}}
	m, err := policy.NewModule(2, schema, policy.MustParse(`out best = min(table, util)`))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Upsert(0, []int64{800}); err != nil {
		t.Fatal(err)
	}
	if err := m.Upsert(1, []int64{100}); err != nil {
		t.Fatal(err)
	}
	r := NewPathRouter(leaf, m, func(res int) int { return 1 + res })

	pkt := &Packet{FlowID: 1, Dst: 1}
	first := r.forward(pkt)
	if first != 2 { // resource 1 (util 100) → port 2
		t.Fatalf("chose port %d, want 2", first)
	}
	// Flip the metrics: the pinned flow must not move, a new flow must.
	if err := m.Upsert(1, []int64{999}); err != nil {
		t.Fatal(err)
	}
	if got := r.forward(pkt); got != first {
		t.Fatal("flow migrated mid-life")
	}
	if got := r.forward(&Packet{FlowID: 2, Dst: 1}); got != 1 {
		t.Fatalf("new flow chose port %d, want 1", got)
	}
	// Single-candidate destinations bypass the policy.
	leaf.SetCandidates(0, []int{0})
	if got := r.forward(&Packet{FlowID: 3, Dst: 0}); got != 0 {
		t.Fatalf("local dst chose port %d", got)
	}
}

func TestPortSelectorTracksQueues(t *testing.T) {
	cfg := DefaultConfig()
	n, err := New(1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sw := n.AddSwitch(3)
	schema := policy.Schema{Attrs: []string{"queue", "qprev"}}
	m, err := policy.NewModule(2, schema, policy.MustParse(`out best = min(table, queue)`))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Upsert(0, []int64{0, 0}); err != nil {
		t.Fatal(err)
	}
	if err := m.Upsert(1, []int64{0, 0}); err != nil {
		t.Fatal(err)
	}
	sel := NewPortSelector(sw, m, map[int]int{0: 1, 1: 2})
	sw.SetCandidates(5, []int{1, 2})

	// Queue buildup on port 1 (resource 0), written into the table the way
	// a leaf's queue hook does.
	if err := m.Table.Update(0, []int64{2, 0}); err != nil {
		t.Fatal(err)
	}
	if got := sel.forward(&Packet{FlowID: 9, Dst: 5}); got != 2 {
		t.Fatalf("selected port %d, want 2 (port 1 queued)", got)
	}
	// Drain port 1, load port 2.
	if err := m.Table.Update(0, []int64{0, 0}); err != nil {
		t.Fatal(err)
	}
	if err := m.Table.Update(1, []int64{3, 0}); err != nil {
		t.Fatal(err)
	}
	if got := sel.forward(&Packet{FlowID: 10, Dst: 5}); got != 1 {
		t.Fatalf("selected port %d, want 1", got)
	}
}

func TestForwardDropOnNegative(t *testing.T) {
	n, sw := twoHostNet(t, DefaultConfig())
	sw.Forward = func(*Packet) int { return -1 } // blackhole
	n.StartFlow(0, 1, 1500, 0)
	n.Sched.RunUntil(10 * sim.Millisecond)
	if len(n.Records()) != 0 {
		t.Fatal("blackholed flow should not complete")
	}
}
