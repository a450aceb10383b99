package lb

import (
	"fmt"

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

// kindFrac maps a query kind to a deterministic pseudo-uniform value in
// [0, 1) (golden-ratio hashing), fixing each kind's intrinsic cost.
func kindFrac(kind int) float64 {
	x := float64(kind) * 0.6180339887498949
	return x - float64(int(x))
}

// Result collects the completed queries of one run in arrival order.
type Result struct {
	Queries []*Query
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
//
// The switch's table writes and connection-table operations are
// deterministic, as in the paper's hardware, so a probe, placement or
// release that fails is a fault in the run's configuration, not a transient
// to retry: it ends the run with that error.
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

	bal, err := NewBalancer(cfg.Servers, cfg.ConnCapacity, policySrc)
	if err != nil {
		return nil, err
	}

	res := &Result{Queries: make([]*Query, 0, numQueries)}
	// runErr is the first failure inside the simulation; it stops the run.
	var runErr error
	fail := func(err error) {
		if runErr == nil {
			runErr = err
		}
		sched.Stop()
	}

	// Prime the resource table with initial probes so the first placement
	// has data.
	probeAll := func() error {
		for _, sv := range servers {
			cpu, mem, bw := sv.CurrentResources()
			if err := bal.HandleProbe(MakeProbe(sv.id, cpu, mem, bw)); err != nil {
				return fmt.Errorf("lb: probe from server %d: %w", sv.id, err)
			}
		}
		return nil
	}
	if err := probeAll(); err != nil {
		return nil, err
	}

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
		if err := probeAll(); err != nil {
			fail(err)
			return
		}
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
				fail(fmt.Errorf("lb: release query %d: %w", q.ID, err))
				return
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
			server, err := bal.Place(q.ID)
			if err != nil {
				fail(fmt.Errorf("lb: place query %d: %w", q.ID, err))
				return
			}
			servers[server].Submit(q)
		})
		at += sim.Time(cfg.MeanGapUs * wrand.ExpFloat64() * float64(sim.Microsecond))
	}

	sched.Run()
	if runErr != nil {
		return nil, runErr
	}
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
