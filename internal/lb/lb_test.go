package lb

import (
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

func TestProbeRoundTrip(t *testing.T) {
	b, err := NewBalancer(4, 16, PolicyResourceAware)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.HandleProbe(MakeProbe(2, 45.7, 3000, 5000)); err != nil {
		t.Fatal(err)
	}
	vals := make([]int64, 3)
	if !b.mod.Table.MetricsInto(2, vals) {
		t.Fatal("probe did not install server")
	}
	if vals[0] != 45 || vals[1] != 3000 || vals[2] != 5000 {
		t.Fatalf("metrics = %v", vals)
	}
	// Negative values clamp to zero rather than wrapping.
	if err := b.HandleProbe(MakeProbe(3, -5, -1, -1)); err != nil {
		t.Fatal(err)
	}
	b.mod.Table.MetricsInto(3, vals)
	if vals[0] != 0 || vals[1] != 0 {
		t.Fatalf("clamped metrics = %v", vals)
	}
	if err := b.HandleProbe([]byte{1, 2}); err == nil {
		t.Fatal("short probe should fail")
	}
}

func TestPlacementAffinity(t *testing.T) {
	b, err := NewBalancer(4, 16, PolicyRandom)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 4; s++ {
		if err := b.HandleProbe(MakeProbe(s, 50, 2048, 4000)); err != nil {
			t.Fatal(err)
		}
	}
	first, err := b.Place(42)
	if err != nil {
		t.Fatal(err)
	}
	// Repeated placements of the same connection stick (SilkRoad affinity).
	for i := 0; i < 20; i++ {
		got, err := b.Place(42)
		if err != nil {
			t.Fatal(err)
		}
		if got != first {
			t.Fatal("connection affinity broken")
		}
	}
	if b.Decisions[first] != 1 {
		t.Fatalf("Decisions = %v, want one new-connection decision", b.Decisions)
	}
	// Release then re-place may choose anew (table miss).
	if err := b.Release(42); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Place(42); err != nil {
		t.Fatal(err)
	}
}

func TestPlaceWithEmptyTableFails(t *testing.T) {
	b, err := NewBalancer(4, 16, PolicyRandom)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Place(1); err == nil {
		t.Fatal("placement with no servers should fail")
	}
}

func TestResourceAwarePolicyAvoidsStarvedServers(t *testing.T) {
	b, err := NewBalancer(4, 1024, PolicyResourceAware)
	if err != nil {
		t.Fatal(err)
	}
	// Servers 0 and 1 healthy; 2 has hot CPU; 3 is out of memory.
	b.HandleProbe(MakeProbe(0, 30, 4000, 6000))
	b.HandleProbe(MakeProbe(1, 40, 3000, 5000))
	b.HandleProbe(MakeProbe(2, 95, 4000, 6000))
	b.HandleProbe(MakeProbe(3, 20, 512, 6000))
	for c := int64(0); c < 200; c++ {
		s, err := b.Place(c)
		if err != nil {
			t.Fatal(err)
		}
		if s == 2 || s == 3 {
			t.Fatalf("placed connection on starved server %d", s)
		}
	}
	if b.Decisions[0] == 0 || b.Decisions[1] == 0 {
		t.Fatalf("healthy servers unused: %v", b.Decisions)
	}
}

func TestResourceAwareFallsBackWhenAllStarved(t *testing.T) {
	b, err := NewBalancer(2, 64, PolicyResourceAware)
	if err != nil {
		t.Fatal(err)
	}
	b.HandleProbe(MakeProbe(0, 99, 100, 100))
	b.HandleProbe(MakeProbe(1, 98, 100, 100))
	if _, err := b.Place(1); err != nil {
		t.Fatalf("fallback should place anyway: %v", err)
	}
}

func TestServerQueueing(t *testing.T) {
	sched := sim.New(1)
	trace, err := workload.NewResourceTrace(1, 0.2, []workload.ResourceSpec{
		{Name: "cpu", Mean: 0, Sigma: 0, Min: 0, Max: 100}, // fully idle
		{Name: "mem", Mean: 4096, Sigma: 0, Min: 0, Max: 8192},
		{Name: "bw", Mean: 8000, Sigma: 0, Min: 0, Max: 10000},
	})
	if err != nil {
		t.Fatal(err)
	}
	sv := &Server{id: 0, cfg: DefaultServerConfig(), trace: trace, sched: sched}
	var done []*Query
	for i := 0; i < 3; i++ {
		q := &Query{ID: int64(i), DemandUs: 100, Arrive: 0}
		q.finished = func(q *Query) { done = append(done, q) }
		sv.Submit(q)
	}
	if sv.QueueLen() != 2 {
		t.Fatalf("backlog = %d, want 2 (one in service)", sv.QueueLen())
	}
	sched.Run()
	if len(done) != 3 || sv.Served != 3 {
		t.Fatalf("served %d", sv.Served)
	}
	// FIFO: completion times are 100, 200, 300 µs on an idle server.
	for i, q := range done {
		want := sim.Time((i + 1) * 100 * int(sim.Microsecond))
		if q.Done != want {
			t.Fatalf("query %d done at %v, want %v", i, q.Done, want)
		}
	}
}

func TestServerThrashPenalty(t *testing.T) {
	sched := sim.New(1)
	trace, _ := workload.NewResourceTrace(1, 0.2, []workload.ResourceSpec{
		{Name: "cpu", Mean: 50, Sigma: 0, Min: 0, Max: 100},
		{Name: "mem", Mean: 100, Sigma: 0, Min: 0, Max: 8192}, // below need
		{Name: "bw", Mean: 8000, Sigma: 0, Min: 0, Max: 10000},
	})
	sv := &Server{id: 0, cfg: DefaultServerConfig(), trace: trace, sched: sched}
	q := &Query{ID: 1, DemandUs: 100}
	var doneAt sim.Time
	q.finished = func(q *Query) { doneAt = q.Done }
	sv.Submit(q)
	sched.Run()
	// CPU 50% is just past the knee (49%): slow ≈ 1.024; memory below the
	// working set multiplies 1.4 → ≈143 µs for a 100 µs demand.
	lo := sim.Time(140 * sim.Microsecond)
	hi := sim.Time(150 * sim.Microsecond)
	if doneAt < lo || doneAt > hi {
		t.Fatalf("thrashed completion at %v, want ≈143µs", doneAt)
	}
	// Sanity: the same demand on a healthy server takes exactly 100 µs.
	if sf := sv.speedFactor(); sf <= 1.4 || sf >= 1.5 {
		t.Fatalf("speedFactor = %.3f, want ≈1.43", sf)
	}
}

func TestRunDeterministicAndComparable(t *testing.T) {
	cfg := DefaultClusterConfig(11)
	a, err := Run(cfg, PolicyRandom, 300)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(cfg, PolicyRandom, 300)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Queries {
		if a.Queries[i].Done != b.Queries[i].Done {
			t.Fatal("same policy + seed should reproduce exactly")
		}
	}
	// Across policies, the workload is identical (arrival and demand).
	c, err := Run(cfg, PolicyResourceAware, 300)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Queries {
		if a.Queries[i].Arrive != c.Queries[i].Arrive ||
			a.Queries[i].DemandUs != c.Queries[i].DemandUs {
			t.Fatal("workload differs across policies; normalization invalid")
		}
	}
}

func TestRunValidation(t *testing.T) {
	cfg := DefaultClusterConfig(1)
	if _, err := Run(cfg, PolicyRandom, 0); err == nil {
		t.Error("zero queries should fail")
	}
	bad := cfg
	bad.Servers = 0
	if _, err := Run(bad, PolicyRandom, 10); err == nil {
		t.Error("zero servers should fail")
	}
	if _, err := Run(cfg, "not a policy", 10); err == nil {
		t.Error("bad policy source should fail")
	}
}

// TestResourceAwareBeatsRandom is the Figure 16 headline shape: Policy 2
// improves response time for the bulk of queries, with a meaningful
// fraction seeing ≥1.3× improvement.
func TestResourceAwareBeatsRandom(t *testing.T) {
	cfg := DefaultClusterConfig(5)
	const n = 2000
	p1, err := Run(cfg, PolicyRandom, n)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := Run(cfg, PolicyResourceAware, n)
	if err != nil {
		t.Fatal(err)
	}
	r1 := p1.ResponseTimesUs(cfg.NetRTTUs)
	r2 := p2.ResponseTimesUs(cfg.NetRTTUs)
	ratios := stats.Ratio(r2, r1)
	var s stats.Sample
	s.AddAll(ratios)
	// Policy 2 must win on aggregate: mean normalized response time below 1
	// and a sizeable fraction of queries improving by ≥ 1.3× (ratio ≤ 0.77).
	if mean := s.Mean(); mean >= 1.0 {
		t.Fatalf("mean normalized response time = %.2f, want < 1", mean)
	}
	if med := s.Median(); med > 1.0 {
		t.Fatalf("median normalized response time = %.2f, want ≤ 1", med)
	}
	if frac := s.FractionBelow(0.77); frac < 0.25 {
		t.Fatalf("only %.0f%% of queries improved ≥1.3x", 100*frac)
	}
}

func TestPolicySourcesParse(t *testing.T) {
	for _, src := range []string{PolicyRandom, PolicyResourceAware} {
		if _, err := NewBalancer(4, 4, src); err != nil {
			t.Errorf("builtin policy failed: %v\n%s", err, strings.TrimSpace(src))
		}
	}
}

// TestClusterRunHealthyServesEveryQuery pins the fault-free path the
// figures run: every query of the run is placed on one of the servers.
func TestClusterRunHealthyServesEveryQuery(t *testing.T) {
	cfg := DefaultClusterConfig(2)
	res, err := Run(cfg, PolicyResourceAware, 100)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Queries) != 100 {
		t.Fatalf("completed %d of 100 queries", len(res.Queries))
	}
	for _, q := range res.Queries {
		if q.Server < 0 || q.Server >= cfg.Servers {
			t.Fatalf("query %d served by %d, want a server in [0,%d)", q.ID, q.Server, cfg.Servers)
		}
	}
}

// TestClusterRunEndsOnPlacementError: a placement the switch cannot make —
// here a connection table with room for one connection while a second one
// arrives — ends the run with that error, naming the query.
func TestClusterRunEndsOnPlacementError(t *testing.T) {
	cfg := DefaultClusterConfig(2)
	cfg.ConnCapacity = 1
	res, err := Run(cfg, PolicyResourceAware, 100)
	if err == nil {
		t.Fatalf("Run with a one-entry connection table succeeded (%d queries)", len(res.Queries))
	}
	if msg := err.Error(); !strings.HasPrefix(msg, "lb: place query ") || !strings.Contains(msg, "full") {
		t.Fatalf("Run error = %q, want the placement failure with its query id", msg)
	}
}
