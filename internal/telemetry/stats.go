package telemetry

import "strconv"

// This file defines the pre-wired metric bundles the datapath layers hang
// onto: table op counts (SMBM, §5.1) and chain selectivity (filter chains
// and the banked pipeline, §5.3). Each bundle is a plain struct of
// *Counter/*Gauge handles — concrete pointers, never interfaces, so
// instrumented calls stay static.
//
// The New*Stats constructors take a shard count and return one handle
// struct per shard. All shards of one bundle share the same registered
// metric names (backed by ShardedCounter slots), so Prometheus sees one
// logical metric while each engine shard increments its own cache line.
// Single-pipeline callers pass shards=1 and use the first element.

// TableStats counts SMBM operations (§5.1: 2-cycle writes, spare-pool
// reuse) for one table replica. Reads is incremented on the hot Value path
// (one read per metric access per UFPU step); the op counters are
// incremented on the cold write path. Size tracks the live member count.
//
// In the sharded engine every logical write is applied once to the table of
// every healthy shard, so the exported add/delete counts measure replica
// write amplification: shards x logical ops.
type TableStats struct {
	Adds    *Counter
	Deletes *Counter
	Updates *Counter
	Reads   *Counter
	Size    *Gauge
}

// NewTableStats registers <prefix>_{adds,deletes,updates,reads}_total and
// <prefix>_size under r and returns one TableStats handle per shard.
func NewTableStats(r *Registry, prefix string, shards int) []*TableStats {
	adds := r.NewShardedCounter(prefix+"_adds_total", "SMBM add operations applied (per replica)", shards)
	dels := r.NewShardedCounter(prefix+"_deletes_total", "SMBM delete operations applied (per replica)", shards)
	upds := r.NewShardedCounter(prefix+"_updates_total", "SMBM update operations applied (per replica)", shards)
	reads := r.NewShardedCounter(prefix+"_reads_total", "SMBM metric-value reads on the decision path", shards)
	size := r.NewGauge(prefix+"_size", "live members in the table (replicas hold the same contents; the last one written sets it)")
	out := make([]*TableStats, shards)
	for i := range out {
		out[i] = &TableStats{
			Adds:    adds.Shard(i),
			Deletes: dels.Shard(i),
			Updates: upds.Shard(i),
			Reads:   reads.Shard(i),
			Size:    size,
		}
	}
	return out
}

// ChainStats is the selectivity provenance of one filter chain (§5.3): per
// step, how often it ran and the cumulative candidate-set popcount after
// it. Candidates/Invocations gives the average post-step selectivity, and
// comparing consecutive steps shows where the chain narrows.
type ChainStats struct {
	// Labels[i] names step i (the chain expression or pipeline stage).
	Labels []string
	// Invocations[i] counts executions of step i.
	Invocations []*Counter
	// Candidates[i] accumulates the candidate-set popcount after step i.
	Candidates []*Counter
}

// Steps returns the number of chain steps.
func (c *ChainStats) Steps() int { return len(c.Invocations) }

// NewChainStats registers, for every step i,
// <prefix>_step<i>_invocations_total and <prefix>_step<i>_candidates_total
// (help text carries the step label), and returns one ChainStats handle
// per shard.
func NewChainStats(r *Registry, prefix string, labels []string, shards int) []*ChainStats {
	out := make([]*ChainStats, shards)
	for i := range out {
		out[i] = &ChainStats{
			Labels:      append([]string(nil), labels...),
			Invocations: make([]*Counter, len(labels)),
			Candidates:  make([]*Counter, len(labels)),
		}
	}
	for step, label := range labels {
		base := prefix + "_step" + strconv.Itoa(step)
		inv := r.NewShardedCounter(base+"_invocations_total", "invocations of chain step: "+label, shards)
		cand := r.NewShardedCounter(base+"_candidates_total", "cumulative post-step candidate popcount of chain step: "+label, shards)
		for i := range out {
			out[i].Invocations[step] = inv.Shard(i)
			out[i].Candidates[step] = cand.Shard(i)
		}
	}
	return out
}
