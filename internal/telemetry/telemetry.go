// Package telemetry is the zero-allocation observability layer of the
// Thanos reproduction. The paper's pitch is line-rate guarantees — one
// packet per clock, fixed per-unit latencies (§5) — and the software
// rendering of that guarantee is a decision path that never allocates and
// never blocks. Instrumentation must live inside that path without voiding
// it, so every hot-path primitive here is built exclusively on sync/atomic
// over storage that is fully pre-allocated at construction:
//
//   - Counter: a cache-line-padded atomic counter. Padding matters because
//     callers decide on different engine shards at once; two shards bumping
//     neighbouring counters must not ping-pong a cache line.
//   - ShardedCounter: one logical metric backed by one padded Counter slot
//     per shard. Hot code increments its own shard's slot; the registry
//     exports the sum.
//   - Gauge: an atomic level (table size, active flows).
//   - Histogram: fixed power-of-two buckets indexed by bit length
//     (histogram.go) — latency and occupancy distributions with no
//     per-observation branching or allocation.
//   - SpanRing: a fixed ring of per-request phase spans keyed by trace ID
//     (span.go), the one tracing model.
//
// Everything is pre-registered at construction (registry.go); the packet
// path performs zero heap allocations and never blocks, a contract pinned
// by the AllocsPerRun tests and TestHotInstrumentsNeverBlock.
//
// Hot-path mutators tolerate nil receivers, so instrumented code runs
// unchanged — and unmeasured — when no telemetry is attached.
package telemetry

import "sync/atomic"

// Counter is a monotonically increasing counter, padded to a cache line so
// per-shard counters never share one. Increments are lock-free and
// allocation-free; a nil *Counter ignores increments.
type Counter struct {
	v atomic.Uint64
	_ [56]byte // pad to 64 bytes: one counter per cache line
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// ShardedCounter is one logical counter striped across per-shard padded
// slots: hot code increments Shard(i) with no cross-shard cache traffic,
// and Value sums the slots at export time.
type ShardedCounter struct {
	slots []Counter
}

// NewShardedCounter returns a sharded counter with n slots (minimum 1).
// Counters handed to hot paths should come from a Registry so they are
// exported; this constructor exists for tests and embedding.
func NewShardedCounter(n int) *ShardedCounter {
	if n < 1 {
		n = 1
	}
	return &ShardedCounter{slots: make([]Counter, n)}
}

// Shard returns the padded counter slot for shard i.
func (s *ShardedCounter) Shard(i int) *Counter { return &s.slots[i] }

// Shards returns the number of slots.
func (s *ShardedCounter) Shards() int { return len(s.slots) }

// Value returns the sum over all slots.
func (s *ShardedCounter) Value() uint64 {
	var total uint64
	for i := range s.slots {
		total += s.slots[i].v.Load()
	}
	return total
}

// Gauge is an instantaneous level (table size, ring depth). Writes are
// lock-free and allocation-free; a nil *Gauge ignores writes.
type Gauge struct {
	v atomic.Int64
	_ [56]byte
}

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adds d (negative to decrease).
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v.Add(d)
}

// Value returns the current level.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}
