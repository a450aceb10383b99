package lb

import (
	"fmt"

	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/workload"
)

// ClusterConfig shapes the §7.2.2 experiment: servers, traces, probes and
// the query workload.
type ClusterConfig struct {
	Servers       int
	Seed          int64
	ServerCfg     ServerConfig
	ProbeInterval sim.Time // how often servers report resources
	TraceTick     sim.Time // how often background resource use moves
	NetRTTUs      float64  // fixed client↔server network round trip
	QueryKinds    int      // distinct query types (Zipf-skewed)
	ZipfS         float64
	MeanDemandUs  float64 // mean intrinsic query service demand
	MeanGapUs     float64 // mean query inter-arrival gap (Poisson)
	ConnCapacity  int
	// WrapBackend, when set, wraps the placement backend before the control
	// updater is layered on top — the fault-injection seam: tests and
	// failure experiments interpose backends that refuse updates or
	// decisions, and the run must degrade rather than panic.
	WrapBackend func(Backend) Backend
}

// DefaultClusterConfig mirrors the paper's setup: four servers (hosts 5–8
// of Figure 15), probes every 1 ms, queries from a skewed trace.
func DefaultClusterConfig(seed int64) ClusterConfig {
	return ClusterConfig{
		Servers:       4,
		Seed:          seed,
		ServerCfg:     DefaultServerConfig(),
		ProbeInterval: 1 * sim.Millisecond,
		TraceTick:     5 * sim.Millisecond,
		NetRTTUs:      50,
		QueryKinds:    64,
		ZipfS:         1.3,
		MeanDemandUs:  200,
		MeanGapUs:     550, // keeps load low, as §7.2.2 does, so response time is dominated by server processing
		ConnCapacity:  1 << 16,
	}
}

// Validate sanity-checks the configuration.
func (c ClusterConfig) Validate() error {
	if c.Servers < 1 || c.QueryKinds < 1 || c.ConnCapacity < 1 {
		return fmt.Errorf("lb: non-positive cluster parameter")
	}
	if c.ProbeInterval <= 0 || c.TraceTick <= 0 {
		return fmt.Errorf("lb: non-positive interval")
	}
	if c.MeanDemandUs <= 0 || c.MeanGapUs <= 0 || c.NetRTTUs < 0 {
		return fmt.Errorf("lb: non-positive workload parameter")
	}
	if c.ZipfS <= 1 {
		return fmt.Errorf("lb: Zipf s must be > 1")
	}
	return nil
}

// newClusterBalancer builds the run's module-backed balancer. The module —
// wrapped by cfg.WrapBackend if set — sits behind a ControlUpdater, so
// refused table updates are retried with backoff instead of failing the
// probe loop; on a healthy backend the updater is a transparent
// pass-through.
func newClusterBalancer(cfg ClusterConfig, policySrc string, sched *sim.Scheduler) (*Balancer, *ControlUpdater, error) {
	pol, err := policy.Parse(policySrc)
	if err != nil {
		return nil, nil, err
	}
	mod, err := policy.NewModule(cfg.Servers, Schema, pol)
	if err != nil {
		return nil, nil, err
	}
	var backend Backend = mod
	if cfg.WrapBackend != nil {
		backend = cfg.WrapBackend(backend)
	}
	upd := NewControlUpdater(sched, backend)
	bal, err := NewBalancerWithBackend(upd, cfg.ConnCapacity)
	if err != nil {
		return nil, nil, err
	}
	return bal, upd, nil
}

// kindFrac maps a query kind to a deterministic pseudo-uniform value in
// [0, 1) (golden-ratio hashing), fixing each kind's intrinsic cost.
func kindFrac(kind int) float64 {
	x := float64(kind) * 0.6180339887498949
	return x - float64(int(x))
}

// Result collects the completed queries of one run in arrival order, plus
// the control-plane health counters of the run — all zero on a healthy
// cluster.
type Result struct {
	Queries []*Query

	// ProbeErrors counts resource probes the parser rejected.
	ProbeErrors uint64
	// PlacementRetries counts deferred re-attempts after Place failed;
	// PlacementFailures counts queries abandoned after the last attempt
	// (their Server is -2 and their response time excludes the server RTT).
	PlacementRetries  uint64
	PlacementFailures uint64
	// ReleaseErrors counts connection-table removals that failed.
	ReleaseErrors uint64
	// Control-updater delivery counters (see ControlUpdater).
	CtrlApplied uint64
	CtrlRetries uint64
	CtrlDropped uint64
	CtrlStale   uint64
}

// ResponseTimesUs returns per-query response times in microseconds,
// indexed by arrival order: network RTT + queueing + service for
// server-handled queries, and the switch-side time alone for queries a
// cache intercept answered (Server == -1; the intercept's respUs already
// covers the client↔switch round trip).
func (r *Result) ResponseTimesUs(netRTTUs float64) []float64 {
	out := make([]float64, len(r.Queries))
	for i, q := range r.Queries {
		out[i] = float64(q.Done-q.Arrive) / float64(sim.Microsecond)
		if q.Server >= 0 {
			out[i] += netRTTUs
		}
	}
	return out
}

// Intercept lets an in-network cache (§7.2.5) answer a query before it
// reaches the servers: given the query kind, it returns the switch-side
// response time in microseconds and handled=true, or handled=false to
// forward the query to a server as usual.
type Intercept func(kind int) (respUs float64, handled bool)

// Run simulates numQueries queries against a fresh cluster under the given
// placement policy (a DSL source such as PolicyRandom). Two runs with the
// same config and query count are query-for-query comparable: arrivals,
// demands and background resource traces are identical, only placement
// differs — exactly how Figure 16 normalizes Policy 2 against Policy 1.
func Run(cfg ClusterConfig, policySrc string, numQueries int) (*Result, error) {
	return RunIntercepted(cfg, policySrc, numQueries, nil)
}

// RunIntercepted is Run with an optional in-network cache intercept; the
// workload and server environment are identical to the uncached run with
// the same configuration, so results remain query-for-query comparable
// (how Figure 19 normalizes the cached run against the uncached one).
func RunIntercepted(cfg ClusterConfig, policySrc string, numQueries int, intercept Intercept) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if numQueries <= 0 {
		return nil, fmt.Errorf("lb: need at least one query")
	}
	sched := sim.New(cfg.Seed)

	// Servers with independent background-resource traces. Seeds derive
	// from cfg.Seed only, so the environment is identical across policies.
	servers := make([]*Server, cfg.Servers)
	for i := range servers {
		trace, err := workload.NewResourceTrace(cfg.Seed*1000+int64(i), 0.15, []workload.ResourceSpec{
			{Name: "cpu", Mean: 55, Sigma: 14, Min: 0, Max: 100},
			{Name: "mem", Mean: 2048, Sigma: 550, Min: 0, Max: 8192},
			{Name: "bw", Mean: 4000, Sigma: 1200, Min: 0, Max: 10000},
		})
		if err != nil {
			return nil, err
		}
		servers[i] = &Server{id: i, cfg: cfg.ServerCfg, trace: trace, sched: sched}
	}

	bal, upd, err := newClusterBalancer(cfg, policySrc, sched)
	if err != nil {
		return nil, err
	}

	res := &Result{Queries: make([]*Query, 0, numQueries)}

	// Prime the resource table with initial probes so the first placement
	// has data. A rejected probe is counted, not fatal: the next interval
	// refreshes the same row, so the table is at worst one period stale.
	probeAll := func() {
		for _, sv := range servers {
			cpu, mem, bw := sv.CurrentResources()
			if err := bal.HandleProbe(MakeProbe(sv.id, cpu, mem, bw)); err != nil {
				res.ProbeErrors++
			}
		}
	}
	probeAll()

	var tickTrace func()
	tickTrace = func() {
		for _, sv := range servers {
			sv.trace.Step()
		}
		sched.After(cfg.TraceTick, tickTrace)
	}
	sched.After(cfg.TraceTick, tickTrace)

	var tickProbe func()
	tickProbe = func() {
		probeAll()
		sched.After(cfg.ProbeInterval, tickProbe)
	}
	sched.After(cfg.ProbeInterval, tickProbe)

	// Query workload: deterministic kinds, demands and arrival times.
	kinds, _ := workload.NewQueryStream(cfg.Seed+7, cfg.QueryKinds, cfg.ZipfS)
	wrand := sim.New(cfg.Seed + 13).Rand() // workload-only RNG
	remaining := numQueries

	finish := func(q *Query) {
		res.Queries = append(res.Queries, q)
		remaining--
		if remaining == 0 {
			sched.Stop()
		}
	}

	// place routes a query to a server, retrying with doubling delays when
	// the balancer cannot decide (empty table, full connection table, a
	// degraded backend). A query still unplaceable after the last attempt is
	// failed at the switch (Server -2) rather than wedging the run.
	const placeMaxAttempts = 4
	var place func(q *Query, attempt int, delay sim.Time)
	place = func(q *Query, attempt int, delay sim.Time) {
		server, err := bal.Place(q.ID)
		if err == nil {
			servers[server].Submit(q)
			return
		}
		if attempt >= placeMaxAttempts {
			res.PlacementFailures++
			q.Server = -2
			q.Done = sched.Now()
			finish(q)
			return
		}
		res.PlacementRetries++
		sched.After(delay, func() { place(q, attempt+1, delay*2) })
	}

	at := sim.Time(0)
	for i := 0; i < numQueries; i++ {
		kind := kinds.Next()
		// A query kind has a stable intrinsic cost (graph filter queries
		// touch a fixed working set); runs see only small iid jitter.
		kindCost := 0.5 + 1.5*kindFrac(kind)
		q := &Query{
			ID:       int64(i + 1),
			Kind:     kind,
			DemandUs: cfg.MeanDemandUs * kindCost * (0.9 + 0.2*wrand.Float64()),
		}
		if q.DemandUs < 10 {
			q.DemandUs = 10
		}
		q.finished = func(q *Query) {
			if err := bal.Release(q.ID); err != nil {
				res.ReleaseErrors++ // entry leaks until capacity pressure; not fatal
			}
			finish(q)
		}
		arrive := at
		sched.At(arrive, func() {
			q.Arrive = sched.Now()
			if intercept != nil {
				if respUs, handled := intercept(q.Kind); handled {
					// Answered at the switch: no server involvement, no
					// connection-table entry.
					q.Server = -1
					sched.After(sim.Time(respUs*float64(sim.Microsecond)), func() {
						q.Done = sched.Now()
						finish(q)
					})
					return
				}
			}
			place(q, 1, 200*sim.Microsecond)
		})
		at += sim.Time(cfg.MeanGapUs * wrand.ExpFloat64() * float64(sim.Microsecond))
	}

	sched.Run()
	res.CtrlApplied, res.CtrlRetries = upd.Applied(), upd.Retries()
	res.CtrlDropped, res.CtrlStale = upd.Dropped(), upd.Stale()
	if remaining != 0 {
		return nil, fmt.Errorf("lb: %d queries unfinished", remaining)
	}
	// Restore arrival order (completion order differs across servers).
	ordered := make([]*Query, numQueries)
	for _, q := range res.Queries {
		ordered[q.ID-1] = q
	}
	res.Queries = ordered
	return res, nil
}
