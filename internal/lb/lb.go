// Package lb implements the stateful L4 load-balancing experiment of
// §7.2.2: a pool of servers hosting a replicated (graph-database) service,
// each co-located with other workloads that consume resources over time; a
// switch-resident load balancer that keeps per-connection affinity in a
// SilkRoad-style [18] exact-match connection table; resource probes that
// carry each server's current CPU/memory/bandwidth headroom to the switch,
// parsed by the RMT parser (§3); and a Thanos filter module that picks the
// server for every new connection under a programmable policy.
//
// Server execution is modeled as a FIFO queue whose service speed degrades
// with resource pressure — queries landing on a starved server queue up and
// run slowly, which is exactly the behaviour resource-aware filtering
// (Policy 2) avoids and resource-oblivious hashing (Policy 1) suffers.
package lb

import (
	"fmt"

	"repro/internal/policy"
	"repro/internal/rmt"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Schema is the attribute layout of the server resource table: CPU
// utilization percent (lower is better), available memory in MB, available
// bandwidth in Mb/s.
var Schema = policy.Schema{Attrs: []string{"cpu", "mem", "bw"}}

// ProbeParser is the RMT parser layout for server resource probes: 2-byte
// server id, then 2-byte cpu%, 4-byte free memory (MB), 4-byte free
// bandwidth (Mb/s) — the §3 remote-metric path.
func ProbeParser() *rmt.Parser {
	p, err := rmt.NewParser([]rmt.FieldSpec{
		{Name: "server", Offset: 0, Width: 2},
		{Name: "cpu", Offset: 2, Width: 2},
		{Name: "mem", Offset: 4, Width: 4},
		{Name: "bw", Offset: 8, Width: 4},
	})
	if err != nil {
		panic(err) // static layout is valid
	}
	return p
}

// PolicyRandom is Policy 1 of §7.2.2: pick a server uniformly at random,
// the resource-oblivious baseline every production L4 balancer implements.
const PolicyRandom = `
policy lb1
out pick = random(table)
`

// PolicyResourceAware is Policy 2 of §7.2.2: pick uniformly among servers
// with cpu < X, mem > Y and bw > Z, falling back to a uniform pick over all
// servers when the filtered set is empty. X=70 %, Y=1 GB, Z=2 Gb/s are the
// paper's experiment constants.
const PolicyResourceAware = `
policy lb2
let ok = intersect(filter(table, cpu < 70), filter(table, mem > 1024), filter(table, bw > 2000))
out primary = random(ok)
out backup  = random(table)
fallback primary -> backup
`

// ServerConfig shapes one server's behaviour. The thresholds intentionally
// mirror Policy 2's filter constants (cpu < 70 %, mem > 1 GB, bw > 2 Gb/s):
// the paper's operators picked those values because they are where the
// service's performance degrades.
type ServerConfig struct {
	BaseServiceUs float64 // query service time on an unloaded server
	CPUHotPct     float64 // above this CPU use, queries contend for cores
	CPUPenalty    float64 // service-time multiplier when CPU-hot
	MemNeedMB     float64 // below this free memory, the working set pages
	MemPenalty    float64
	BwNeedMbps    float64 // below this free bandwidth, responses stall
	BwPenalty     float64
}

// DefaultServerConfig returns the experiment defaults: 200 µs base service
// time with compounding 1.5×/1.4×/1.3× penalties for CPU, memory and
// bandwidth pressure.
func DefaultServerConfig() ServerConfig {
	return ServerConfig{
		BaseServiceUs: 200,
		CPUHotPct:     70, CPUPenalty: 1.5,
		MemNeedMB: 1024, MemPenalty: 1.4,
		BwNeedMbps: 2000, BwPenalty: 1.3,
	}
}

// Server models one backend: a resource trace plus a FIFO work queue.
type Server struct {
	id      int
	cfg     ServerConfig
	trace   *workload.ResourceTrace
	sched   *sim.Scheduler
	busy    bool
	backlog []*Query
	// Counters for diagnostics.
	Served int
}

// Query is one request flowing through the system.
type Query struct {
	ID       int64
	Kind     int // query type from the trace (drives popularity skew)
	DemandUs float64
	Arrive   sim.Time
	Start    sim.Time // service start
	Done     sim.Time
	Server   int
	finished func(*Query)
}

// CurrentResources returns the server's live (cpu%, freeMemMB, freeBwMbps).
func (s *Server) CurrentResources() (cpu, mem, bw float64) {
	v := s.trace.Values()
	return v[0], v[1], v[2]
}

// speedFactor converts current resource pressure into a service-time
// multiplier. CPU contention slows queries continuously once utilization
// passes 70% of the hot threshold, reaching CPUPenalty at the threshold and
// growing linearly beyond it; crossing the memory or bandwidth working-set
// thresholds compounds a discrete penalty. A server that is simultaneously
// CPU-hot, memory-starved and bandwidth-starved serves queries ≈3× slower
// than an idle one.
func (s *Server) speedFactor() float64 {
	cpu, mem, bw := s.CurrentResources()
	slow := 1.0
	if knee := s.cfg.CPUHotPct * 0.7; cpu > knee {
		slow += (cpu - knee) / (s.cfg.CPUHotPct - knee) * (s.cfg.CPUPenalty - 1)
	}
	if mem < s.cfg.MemNeedMB {
		slow *= s.cfg.MemPenalty
	}
	if bw < s.cfg.BwNeedMbps {
		slow *= s.cfg.BwPenalty
	}
	return slow
}

// Submit enqueues a query for execution.
func (s *Server) Submit(q *Query) {
	q.Server = s.id
	s.backlog = append(s.backlog, q)
	if !s.busy {
		s.serveNext()
	}
}

func (s *Server) serveNext() {
	if len(s.backlog) == 0 {
		s.busy = false
		return
	}
	q := s.backlog[0]
	s.backlog = s.backlog[1:]
	s.busy = true
	q.Start = s.sched.Now()
	serviceUs := q.DemandUs * s.speedFactor()
	s.sched.After(sim.Time(serviceUs*float64(sim.Microsecond)), func() {
		q.Done = s.sched.Now()
		s.Served++
		if q.finished != nil {
			q.finished(q)
		}
		s.serveNext()
	})
}

// QueueLen returns the number of queued (not yet started) queries.
func (s *Server) QueueLen() int { return len(s.backlog) }

// Backend is the placement engine behind a Balancer: probe-driven metric
// refresh and one policy decision per new connection. *policy.Module
// satisfies it, and ControlUpdater wraps one with retried updates.
type Backend interface {
	Upsert(id int, vals []int64) error
	Decide() (id int, ok bool)
}

// Balancer is the switch-resident L4 load balancer: SilkRoad-style
// connection table for affinity plus a Thanos filter module for new-
// connection placement.
type Balancer struct {
	backend   Backend
	connTable *rmt.MatchTable
	parser    *rmt.Parser

	// Decisions counts new-connection placements per server.
	Decisions map[int]int
}

// NewBalancer builds a balancer for numServers backends under the given
// policy source (PolicyRandom, PolicyResourceAware, or custom DSL), backed
// by a single-pipeline filter module.
func NewBalancer(numServers, connCapacity int, policySrc string) (*Balancer, error) {
	pol, err := policy.Parse(policySrc)
	if err != nil {
		return nil, err
	}
	mod, err := policy.NewModule(numServers, Schema, pol)
	if err != nil {
		return nil, err
	}
	return NewBalancerWithBackend(mod, connCapacity)
}

// NewBalancerWithBackend builds a balancer over a caller-provided placement
// backend, such as a ControlUpdater around a module.
func NewBalancerWithBackend(backend Backend, connCapacity int) (*Balancer, error) {
	ct, err := rmt.NewMatchTable("conns", []string{"conn"}, connCapacity, nil)
	if err != nil {
		return nil, err
	}
	return &Balancer{
		backend:   backend,
		connTable: ct,
		parser:    ProbeParser(),
		Decisions: make(map[int]int),
	}, nil
}

// HandleProbe parses a server resource probe (raw bytes as emitted by
// MakeProbe) and refreshes the server's row in the resource table.
func (b *Balancer) HandleProbe(data []byte) error {
	fields, err := b.parser.Parse(data)
	if err != nil {
		return err
	}
	return b.backend.Upsert(int(fields["server"]), []int64{
		int64(fields["cpu"]), int64(fields["mem"]), int64(fields["bw"]),
	})
}

// MakeProbe serializes a probe for the given server state.
func MakeProbe(server int, cpu, memMB, bwMbps float64) []byte {
	data, err := ProbeParser().Serialize(map[string]uint64{
		"server": uint64(server),
		"cpu":    uint64(clampNonNeg(cpu)),
		"mem":    uint64(clampNonNeg(memMB)),
		"bw":     uint64(clampNonNeg(bwMbps)),
	})
	if err != nil {
		panic(err) // all fields provided
	}
	return data
}

func clampNonNeg(v float64) float64 {
	if v < 0 {
		return 0
	}
	return v
}

// Place returns the server for a connection: an existing mapping if the
// connection table holds one (affinity), else a fresh policy decision that
// is then installed. It returns an error when the table is full or the
// resource table is empty.
func (b *Balancer) Place(connID int64) (int, error) {
	ctx := rmt.NewPacketContext()
	ctx.Fields["conn"] = uint64(connID)
	hit, err := b.connTable.Apply(ctx)
	if err != nil {
		return 0, err
	}
	if hit {
		return int(ctx.Meta["server"]), nil
	}
	server, ok := b.backend.Decide()
	if !ok {
		return 0, fmt.Errorf("lb: no servers available")
	}
	sv := uint64(server)
	if err := b.connTable.Install([]uint64{uint64(connID)}, func(c *rmt.PacketContext) {
		c.Meta["server"] = sv
	}); err != nil {
		return 0, err
	}
	b.Decisions[server]++
	return server, nil
}

// Release removes a finished connection from the table.
func (b *Balancer) Release(connID int64) error {
	return b.connTable.Remove([]uint64{uint64(connID)})
}
