package experiments

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/lb"
	"repro/internal/policy"
	"repro/internal/telemetry"
)

// EngineSweepPoint is one shard count's measured throughput in the
// concurrent decision-engine sweep.
type EngineSweepPoint struct {
	Shards          int     `json:"shards"`
	Callers         int     `json:"callers"` // goroutines driving DecideBatch at once: one per shard, capped at GOMAXPROCS
	Batch           int     `json:"batch"`
	TableSize       int     `json:"table_size"`
	Batches         int     `json:"batches"`
	DecisionsPerSec float64 `json:"decisions_per_sec"`
	NsPerDecision   float64 `json:"ns_per_decision"`
	Speedup         float64 `json:"speedup_vs_1_shard"`
}

// EngineSweepResult is the full sweep, printable as the experiment report.
type EngineSweepResult struct {
	GOMAXPROCS int                `json:"gomaxprocs"`
	Points     []EngineSweepPoint `json:"points"`
}

func (r EngineSweepResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== Sharded decision engine throughput (software multi-pipeline, §5.1.5; GOMAXPROCS=%d) ==\n", r.GOMAXPROCS)
	for _, p := range r.Points {
		fmt.Fprintf(&b, "shards=%d callers=%d  %.2fM decisions/s  %.0f ns/decision  speedup %.2fx\n",
			p.Shards, p.Callers, p.DecisionsPerSec/1e6, p.NsPerDecision, p.Speedup)
	}
	b.WriteString("(a shard is a table replica that admits one caller at a time; the sweep drives one caller per shard, capped at GOMAXPROCS, so shard counts beyond the core count add no parallelism)\n")
	return b.String()
}

// EngineShardCounts builds the sweep's shard counts: powers of two up to
// max, plus max itself when it is not a power of two.
func EngineShardCounts(max int) []int {
	if max < 1 {
		max = 1
	}
	var counts []int
	for s := 1; s <= max; s *= 2 {
		counts = append(counts, s)
	}
	if last := counts[len(counts)-1]; last != max {
		counts = append(counts, max)
	}
	return counts
}

// EngineSweep measures batched decision throughput of the concurrent sharded
// engine across shard counts, under the resource-aware load-balancing policy
// (Policy 2 of §7.2.2) over a table of tableSize servers. The engine runs
// decisions on its callers, so each point is driven by one caller goroutine
// per shard (capped at GOMAXPROCS): a single caller would measure one core
// at every shard count. Points run strictly serially — each point's
// parallelism is its own callers', so a worker pool would distort the
// measurement.
func EngineSweep(shardCounts []int, batch, tableSize, batches int, seed int64) (EngineSweepResult, error) {
	res := EngineSweepResult{GOMAXPROCS: runtime.GOMAXPROCS(0)}
	if batch <= 0 || tableSize <= 0 || batches <= 0 {
		return res, fmt.Errorf("experiments: non-positive engine sweep parameter")
	}
	for _, shards := range shardCounts {
		pt, err := measureEnginePoint(shards, batch, tableSize, batches, seed)
		if err != nil {
			return res, err
		}
		if len(res.Points) > 0 {
			pt.Speedup = res.Points[0].NsPerDecision / pt.NsPerDecision
		} else {
			pt.Speedup = 1
		}
		res.Points = append(res.Points, pt)
	}
	return res, nil
}

func enginePolicy() *policy.Policy { return policy.MustParse(lb.PolicyResourceAware) }

func sweepPackets(batch int) []engine.Packet {
	pkts := make([]engine.Packet, batch)
	for i := range pkts {
		pkts[i] = engine.Packet{Key: uint64(i) * 0x9E3779B97F4A7C15}
	}
	return pkts
}

func newSweepEngine(shards, tableSize int, seed int64, reg *telemetry.Registry) (*engine.Engine, error) {
	e, err := engine.New(engine.Config{
		Shards:    shards,
		Capacity:  tableSize,
		Schema:    lb.Schema,
		Policy:    enginePolicy(),
		Telemetry: reg,
	})
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(seed))
	for id := 0; id < tableSize; id++ {
		vals := []int64{int64(r.Intn(100)), int64(r.Intn(8192)), int64(r.Intn(10000))}
		if err := e.Add(id, vals); err != nil {
			e.Close()
			return nil, err
		}
	}
	return e, nil
}

// measureEnginePoint times one sweep configuration.
func measureEnginePoint(shards, batch, tableSize, batches int, seed int64) (EngineSweepPoint, error) {
	pt := EngineSweepPoint{Shards: shards, Batch: batch, TableSize: tableSize, Batches: batches}
	e, err := newSweepEngine(shards, tableSize, seed, nil)
	if err != nil {
		return pt, err
	}
	defer e.Close()
	timeEnginePoint(e, &pt, batch, batches)
	return pt, nil
}

// timeEnginePoint drives batches through the engine from one caller per
// shard (capped at GOMAXPROCS), each deciding its own copy of the batch
// `batches` times, and fills in the point's aggregate throughput numbers.
//
//thanos:wallclock throughput measurement: this harness reports real decisions/sec of the host, which is inherently wall-clock; simulated results use hw.Clock cycles instead
func timeEnginePoint(e *engine.Engine, pt *EngineSweepPoint, batch, batches int) {
	pt.Callers = min(e.Shards(), runtime.GOMAXPROCS(0))
	bufs := make([][]engine.Packet, pt.Callers)
	for c := range bufs {
		bufs[c] = sweepPackets(batch)
	}
	e.DecideBatch(bufs[0]) // warm the version-cached sets and index scratch
	var wg sync.WaitGroup
	start := time.Now()
	for _, pkts := range bufs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < batches; i++ {
				e.DecideBatch(pkts)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	decisions := float64(pt.Callers) * float64(batch) * float64(batches)
	pt.DecisionsPerSec = decisions / elapsed.Seconds()
	pt.NsPerDecision = float64(elapsed.Nanoseconds()) / decisions
}

// EngineTelemetry is one instrumented engine run: the measured throughput
// point plus the telemetry it produced — the full metric snapshot: per-step
// chain selectivity, the batch-size histogram, table op counts. The registry
// is retained so callers can also export Prometheus text.
type EngineTelemetry struct {
	Point    EngineSweepPoint    `json:"point"`
	Snapshot map[string]any      `json:"snapshot"`
	Registry *telemetry.Registry `json:"-"`
}

func (t EngineTelemetry) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== Instrumented engine run (shards=%d batch=%d) ==\n",
		t.Point.Shards, t.Point.Batch)
	fmt.Fprintf(&b, "%.2fM decisions/s  %.0f ns/decision  %d metrics\n",
		t.Point.DecisionsPerSec/1e6, t.Point.NsPerDecision, len(t.Snapshot))
	return b.String()
}

// EngineTelemetryPoint runs one engine sweep configuration with telemetry
// enabled and returns the measurement together with the metric snapshot.
func EngineTelemetryPoint(shards, batch, tableSize, batches int, seed int64) (EngineTelemetry, error) {
	res := EngineTelemetry{}
	if shards <= 0 || batch <= 0 || tableSize <= 0 || batches <= 0 {
		return res, fmt.Errorf("experiments: non-positive engine telemetry parameter")
	}
	reg := telemetry.NewRegistry()
	e, err := newSweepEngine(shards, tableSize, seed, reg)
	if err != nil {
		return res, err
	}
	defer e.Close()
	pt := EngineSweepPoint{Shards: shards, Batch: batch, TableSize: tableSize, Batches: batches, Speedup: 1}
	timeEnginePoint(e, &pt, batch, batches)
	res.Point = pt
	res.Snapshot = reg.Snapshot()
	res.Registry = reg
	return res, nil
}
