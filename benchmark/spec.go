package main

import (
	"repro/internal/lb"
)

// Window shape. The issue's 2 s warm-up / 20 s untraced / 8 s traced windows
// are kept as shares of -seconds, so shrinking the run (BENCHMARK.json pins
// run_seconds) shrinks every window by one common factor.
const (
	warmupShare = 0.10 // warm-up before the window, discarded
	tracedShare = 0.40 // traced window, as a share of -seconds
	plainShare  = 0.20 // untraced window inside a traced run (overhead base)
	// Throughput and CPU are taken over the whole window. A percentile is
	// computed in every slice of this length and the median slice is
	// reported, so one co-tenant burst does not set the number.
	sliceSeconds   = 4.0
	minTailSamples = 10 // samples that must lie beyond a reported percentile
)

// Policies the serve workloads swap between. policyMinCPU has one
// deterministic output; the L4-LB policy (§7.2.2 Policy 2) has a random
// primary output with a random fallback.
const (
	policyMinCPU = "policy wire\nout best = min(table, cpu)\n"
	policyLB     = lb.PolicyResourceAware
)

// setupRepeats is the set-ups per run; the fastest is setup_s. Only the tests
// lower it.
var setupRepeats = 75

type loopKind string

const (
	loopClosed loopKind = "closed"
	loopChurn  loopKind = "closed+paced-writes"
	loopSim    loopKind = "sim"
)

// workloadSpec pins one workload's shape. Nothing here is calibrated at run
// time: parent and change time the same work.
type workloadSpec struct {
	Name string
	Why  string
	Loop loopKind

	// Served workloads.
	Conns     int
	Inflight  int // per connection
	Batch     int
	Resources int
	Policy    string
	Flows     int // distinct flow keys
	// Procs, when set, is GOMAXPROCS for the window (see README).
	Procs int

	// serve_churn: one control connection on a fixed schedule.
	ApplyEveryUs int
	ApplyOps     int
	SwapEveryMs  int

	// Generator validity: a median lag (intended to actual send) above this
	// marks the run invalid. The p99 is reported but not guarded: on the
	// reference VM it is the hypervisor's stalls, 10–80 ms.
	LagLimitUs int

	// netsim_routing.
	Leaves       int
	Spines       int
	HostsPerLeaf int
	Load         float64
	FlowsPerSec  int   // flow count = this × -seconds
	SimSliceNs   int64 // the scheduler runs this far at a time
}

var workloads = []workloadSpec{
	{
		Name: "serve_wire",
		Why:  "batch 8 over 64 resources: client, wire codec, server hand-offs and engine join do the work, the interpreter almost none",
		Loop: loopClosed, Conns: 2, Inflight: 1, Batch: 8, Resources: 64,
		Policy: policyMinCPU, Flows: 1_000_000,
	},
	{
		Name: "serve_filter",
		Why:  "batch 1024 over 1024 resources, L4-LB policy: a quarter millisecond of policy/filter/bitvec/smbm reads per 20 us of wire",
		Loop: loopClosed, Conns: 1, Inflight: 1, Batch: 1024, Resources: 1024,
		Policy: policyLB, Flows: 1_000_000, Procs: 1,
	},
	{
		Name: "serve_churn",
		Why:  "decides beside 8k table upserts/s and a policy swap every 250 ms: every write invalidates cached sets and flips the epoch",
		Loop: loopChurn, Conns: 1, Inflight: 1, Batch: 64, Resources: 256,
		Policy: policyLB, Flows: 1_000_000,
		ApplyEveryUs: 2000, ApplyOps: 16, SwapEveryMs: 250, LagLimitUs: 500,
	},
	{
		Name: "netsim_routing",
		Why:  "serial Clos simulation with a Thanos module on every leaf: policy and smbm through the single-decision path, no wire or engine",
		Loop: loopSim, Leaves: 8, Spines: 4, HostsPerLeaf: 8, Load: 0.8,
		FlowsPerSec: 220, SimSliceNs: 5_000,
	},
}

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

func serveWorkloads() []string {
	return []string{"serve_wire", "serve_filter", "serve_churn"}
}

func allWorkloads() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.Name
	}
	return out
}

// metricSpec defines one metric: what it is, which way is better, and where
// it applies. Gate marks the end-to-end metrics of BENCHMARK.json. The
// driver's contract has each of them reported, non-zero, on every workload
// and steady from run to run, so they are the steady ones, named for what
// every workload has (a step, an op). The other end-to-end metrics apply to
// some workloads, are zero by design, or are too noisy on the reference box
// to gate; the result files carry them and -compare judges them.
type metricSpec struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
	// AbsBound, when set, is an absolute allowance instead of a share.
	AbsBound  float64
	Gate      bool
	Workloads []string
	Def       string
	// Per-layer only.
	Layer string
	Moves string
}

var (
	churnOnly = []string{"serve_churn"}
	simOnly   = []string{"netsim_routing"}
)

const (
	lower  = "lower"
	higher = "higher"
)

// A step is one batch round trip on serve_* and 1000 consecutive scheduler
// events on netsim_routing (runSim has the fine print). An op
// is one verified decision on serve_* and one executed event on
// netsim_routing.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25, Gate: true, Workloads: allWorkloads(),
		Def: "inputs from the seed, engine + server + table install + dial (or topology + flow offer); fastest of the run's identical set-ups"},
	{Name: "step_p50_us", Unit: "us", Better: lower, Bound: 0.25, Gate: true, Workloads: allWorkloads(),
		Def: "latency of one step as its caller sees it, p50 of each slice of the window, median slice: the issue's batch_p50_us on serve_*"},
	{Name: "peak_rss_mb", Unit: "MB", Better: lower, Bound: 0.10, Workloads: allWorkloads(),
		Def: "VmHWM at exit"},
	{Name: "cpu_us_per_op", Unit: "us", Better: lower, Bound: 0.10, Workloads: allWorkloads(),
		Def: "process user+sys CPU (getrusage) over the whole window / ops, net of serve_churn's measured pacing wait: the issue's cpu_us_per_decision"},
	{Name: "decisions_per_s", Unit: "1/s", Better: higher, Bound: 0.10, Workloads: serveWorkloads(),
		Def: "verified decisions completed in the measured window / its seconds"},
	{Name: "events_per_s", Unit: "1/s", Better: higher, Bound: 0.10, Workloads: simOnly,
		Def: "scheduler events executed / host seconds, over all repetitions (host time, not simulated time)"},
	{Name: "step_p90_us", Unit: "us", Better: lower, Bound: 0.15, Workloads: allWorkloads(),
		Def: "as step_p50_us, p90: on serve_churn, a batch that met a writer"},
	{Name: "step_p99_us", Unit: "us", Better: lower, Bound: 0.25, Workloads: allWorkloads(),
		Def: "as step_p50_us, p99 of each slice, median slice: the issue's batch_p99_us on serve_*"},
	{Name: "apply_p50_us", Unit: "us", Better: lower, Bound: 0.15, Workloads: churnOnly,
		Def: "Apply frame round trip from intended send time, p50 of each slice, median slice"},
	{Name: "failed_ratio", Unit: "ratio", Better: lower, AbsBound: 0.001, Workloads: allWorkloads(),
		Def: "(rejects + errors + wrong answers) / attempted; unfinished flows / offered on netsim_routing"},
}

var perLayer = []metricSpec{
	{Name: "client.enqueue_us_p50", Unit: "us", Better: lower, Layer: "client", Moves: "step_p50_us, decisions_per_s on serve_wire", Workloads: serveWorkloads()},
	{Name: "client.enqueue_us_p99", Unit: "us", Better: lower, Layer: "client", Moves: "step_p99_us on serve_wire", Workloads: serveWorkloads()},
	{Name: "wire.request_us_p50", Unit: "us", Better: lower, Layer: "wire", Moves: "step_p50_us on serve_wire", Workloads: serveWorkloads()},
	{Name: "wire.request_us_p99", Unit: "us", Better: lower, Layer: "wire", Moves: "step_p99_us on serve_wire", Workloads: serveWorkloads()},
	{Name: "server.admit_us_p50", Unit: "us", Better: lower, Layer: "server", Moves: "step_p50_us on serve_wire", Workloads: serveWorkloads()},
	{Name: "server.ring_wait_us_p50", Unit: "us", Better: lower, Layer: "server", Moves: "step_p50_us on serve_wire", Workloads: serveWorkloads()},
	{Name: "server.ring_wait_us_p99", Unit: "us", Better: lower, Layer: "server", Moves: "step_p99_us on serve_wire", Workloads: serveWorkloads()},
	{Name: "engine.decide_us_p50", Unit: "us", Better: lower, Layer: "engine", Moves: "decisions_per_s on serve_filter", Workloads: serveWorkloads()},
	{Name: "engine.decide_us_p99", Unit: "us", Better: lower, Layer: "engine", Moves: "step_p99_us on serve_churn", Workloads: serveWorkloads()},
	{Name: "engine.backend_decide_us_p50", Unit: "us", Better: lower, Layer: "engine", Moves: "cross-check of engine.decide_us_p50 by the Backend decorator", Workloads: serveWorkloads()},
	{Name: "engine.decide_share", Unit: "ratio", Better: lower, Layer: "engine", Moves: "engine.decide_us_p50 / traced batch p50: >= 0.8 on serve_filter, <= 0.4 on serve_wire", Workloads: serveWorkloads()},
	{Name: "server.reply_us_p50", Unit: "us", Better: lower, Layer: "server", Moves: "step_p50_us on serve_wire", Workloads: serveWorkloads()},
	{Name: "server.reply_us_p99", Unit: "us", Better: lower, Layer: "server", Moves: "step_p99_us on serve_wire", Workloads: serveWorkloads()},
	{Name: "serve.residual_us_p50", Unit: "us", Better: lower, Layer: "serve", Moves: "ledger closes: <= 10 % of the traced batch p50", Workloads: serveWorkloads()},
	{Name: "serve.traced_batch_us_p50", Unit: "us", Better: lower, Layer: "serve", Moves: "base of the ledger shares", Workloads: serveWorkloads()},
	{Name: "wire.bytes_per_decision", Unit: "B", Better: lower, Layer: "wire", Moves: "cpu_us_per_op on serve_wire", Workloads: serveWorkloads()},
	{Name: "wire.syscalls_per_batch", Unit: "count", Better: lower, Layer: "wire", Moves: "cpu_us_per_op on serve_wire", Workloads: serveWorkloads()},
	{Name: "wire.codec_ns_per_decision", Unit: "ns", Better: lower, Layer: "wire", Moves: "cpu_us_per_op on serve_wire", Workloads: serveWorkloads()},
	{Name: "wire.codec_allocs_per_batch", Unit: "count", Better: lower, Layer: "wire", Moves: "cpu_us_per_op on serve_wire", Workloads: serveWorkloads()},
	{Name: "engine.direct_ns_per_decision", Unit: "ns", Better: lower, Layer: "engine", Moves: "decisions_per_s on serve_filter, serve_wire", Workloads: serveWorkloads()},
	{Name: "engine.handoff_ns_per_batch", Unit: "ns", Better: lower, Layer: "engine", Moves: "decisions_per_s on serve_wire (derived: direct batch time - interp x batch / shards)", Workloads: serveWorkloads()},
	{Name: "policy.interp_ns_per_decision", Unit: "ns", Better: lower, Layer: "policy", Moves: "decisions_per_s on serve_filter; events_per_s, less, on netsim_routing", Workloads: allWorkloads()},
	{Name: "smbm.update_ns_per_op", Unit: "ns", Better: lower, Layer: "smbm", Moves: "apply_p50_us, decisions_per_s on serve_churn; events_per_s on netsim_routing", Workloads: allWorkloads()},
	{Name: "smbm.add_delete_ns_per_op", Unit: "ns", Better: lower, Layer: "smbm", Moves: "apply_p50_us on serve_churn", Workloads: allWorkloads()},
	{Name: "engine.apply_ns_per_op", Unit: "ns", Better: lower, Layer: "engine", Moves: "apply_p50_us, step_p99_us on serve_churn", Workloads: churnOnly},
	{Name: "engine.swap_us_p50", Unit: "us", Better: lower, Layer: "engine", Moves: "step_p99_us on serve_churn", Workloads: churnOnly},
	{Name: "server.apply_us_p50", Unit: "us", Better: lower, Layer: "server", Moves: "apply_p50_us of the traced run", Workloads: churnOnly},
	{Name: "server.apply_us_p99", Unit: "us", Better: lower, Layer: "server", Moves: "step_p99_us on serve_churn", Workloads: churnOnly},
	{Name: "server.swap_us_p50", Unit: "us", Better: lower, Layer: "server", Moves: "step_p99_us on serve_churn", Workloads: churnOnly},
	{Name: "server.rejects", Unit: "count", Better: lower, Layer: "server", Moves: "failed_ratio", Workloads: serveWorkloads()},
	{Name: "client.reconnects", Unit: "count", Better: lower, Layer: "client", Moves: "failed_ratio", Workloads: serveWorkloads()},
	{Name: "runtime.ctx_switches_per_batch", Unit: "count", Better: lower, Layer: "runtime", Moves: "decisions_per_s, cpu_us_per_op on serve_wire", Workloads: serveWorkloads()},
	{Name: "runtime.allocs_per_decision", Unit: "count", Better: lower, Layer: "runtime", Moves: "step_p99_us on serve_churn", Workloads: serveWorkloads()},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: lower, Layer: "runtime", Moves: "step_p99_us on serve_churn, netsim_routing", Workloads: allWorkloads()},
	{Name: "runtime.gc_cycles", Unit: "count", Better: lower, Layer: "runtime", Moves: "step_p99_us on serve_churn, netsim_routing", Workloads: allWorkloads()},
	{Name: "gen.sched_lag_us_p50", Unit: "us", Better: lower, Layer: "gen", Moves: "validity: above the pinned limit the run is invalid", Workloads: churnOnly},
	{Name: "gen.sched_lag_us_p99", Unit: "us", Better: lower, Layer: "gen", Moves: "on the reference VM, the hypervisor's stalls", Workloads: churnOnly},
	{Name: "gen.backlog_max", Unit: "count", Better: lower, Layer: "gen", Moves: "validity", Workloads: churnOnly},
	{Name: "netsim.ns_per_event", Unit: "ns", Better: lower, Layer: "netsim", Moves: "events_per_s on netsim_routing", Workloads: simOnly},
	{Name: "netsim.allocs_per_event", Unit: "count", Better: lower, Layer: "netsim", Moves: "events_per_s on netsim_routing", Workloads: simOnly},
	{Name: "netsim.forward_ns_per_pkt", Unit: "ns", Better: lower, Layer: "netsim", Moves: "events_per_s on netsim_routing", Workloads: simOnly},
	{Name: "netsim.forward_calls", Unit: "count", Better: lower, Layer: "netsim", Moves: "denominator; repeats exactly", Workloads: simOnly},
	{Name: "netsim.metric_tick_ns", Unit: "ns", Better: lower, Layer: "netsim", Moves: "events_per_s on netsim_routing", Workloads: simOnly},
	{Name: "netsim.table_updates", Unit: "count", Better: lower, Layer: "netsim", Moves: "denominator; repeats exactly", Workloads: simOnly},
	{Name: "sim.ns_per_noop_event", Unit: "ns", Better: lower, Layer: "sim", Moves: "events_per_s on netsim_routing", Workloads: simOnly},
	{Name: "netsim.sim_events", Unit: "count", Better: lower, Layer: "netsim", Moves: "identity check; repeats exactly", Workloads: simOnly},
	{Name: "netsim.pkts_delivered", Unit: "count", Better: higher, Layer: "netsim", Moves: "identity check", Workloads: simOnly},
	{Name: "netsim.drops", Unit: "count", Better: lower, Layer: "netsim", Moves: "identity check", Workloads: simOnly},
	{Name: "netsim.retransmits", Unit: "count", Better: lower, Layer: "netsim", Moves: "identity check", Workloads: simOnly},
	{Name: "netsim.flows_completed", Unit: "count", Better: higher, Layer: "netsim", Moves: "identity check", Workloads: simOnly},
	{Name: "netsim.sim_time_ms", Unit: "ms", Better: lower, Layer: "netsim", Moves: "identity check (simulated time)", Workloads: simOnly},
	{Name: "untraced.decisions_per_s", Unit: "1/s", Better: higher, Layer: "untraced", Moves: "decisions_per_s, from the untraced window of the traced run", Workloads: serveWorkloads()},
	{Name: "untraced.cpu_us_per_op", Unit: "us", Better: lower, Layer: "untraced", Moves: "cpu_us_per_op, from the untraced window of the traced run", Workloads: allWorkloads()},
	{Name: "untraced.step_p99_us", Unit: "us", Better: lower, Layer: "untraced", Moves: "step_p99_us, from the untraced window of the traced run", Workloads: allWorkloads()},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: lower, Layer: "trace", Moves: "untraced / traced throughput inside the traced run", Workloads: allWorkloads()},
}

func findMetric(list []metricSpec, name string) *metricSpec {
	for i := range list {
		if list[i].Name == name {
			return &list[i]
		}
	}
	return nil
}

func appliesTo(m *metricSpec, workload string) bool {
	for _, w := range m.Workloads {
		if w == workload {
			return true
		}
	}
	return false
}
