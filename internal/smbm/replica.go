package smbm

import (
	"errors"
	"fmt"
)

// ErrWriteContention is returned when two different pipelines attempt to
// write the same resource entry in the same clock cycle, the contention case
// §5.1.5 shows is avoided in practice by routing a resource's probe packets
// through a single pipeline.
var ErrWriteContention = errors.New("smbm: concurrent writes to same resource entry in one cycle")

// ErrReplicaDivergence is returned when a broadcast write succeeds on the
// authoritative replica (pipeline 0) but fails on a sibling, meaning that
// sibling no longer mirrors the authoritative contents — e.g. after memory
// corruption or a missed update. The diverged replica is remembered and
// skipped by subsequent broadcasts until Resync rebuilds it; the healthy
// replicas stay mutually consistent throughout, so the data plane can keep
// serving from them while the control plane repairs the failed pipeline.
var ErrReplicaDivergence = errors.New("smbm: replica divergence")

// ReplicaGroup models Thanos's integration with multi-pipelined data planes
// (§5.1.5): one SMBM replica per switch pipeline, with every write applied
// synchronously to all replicas so that probe packets never need to be
// re-circulated. The group tracks, per logical cycle, which resource entries
// have been written, and rejects a second same-cycle write to the same entry
// from a different pipeline (write contention). A group is not safe for
// concurrent use; a caller sharing one between goroutines brings its own lock.
type ReplicaGroup struct {
	replicas []*SMBM
	cycle    uint64
	// writers maps resource id -> pipeline that wrote it this cycle.
	writers map[int]int
	// diverged[p] marks replica p as out of sync with replica 0: a broadcast
	// write failed on it after succeeding on the authoritative replica.
	// Diverged replicas are skipped by later broadcasts (they would only
	// drift further) until Resync clears the flag. Replica 0 is the
	// authority and never diverges: its failures reject the whole write.
	diverged []bool
}

// NewReplicaGroup creates numPipelines replicas, each an SMBM with capacity
// n and m metrics. It panics if numPipelines <= 0.
func NewReplicaGroup(numPipelines, n, m int) *ReplicaGroup {
	if numPipelines <= 0 {
		panic("smbm: replica group needs at least one pipeline")
	}
	g := &ReplicaGroup{
		replicas: make([]*SMBM, numPipelines),
		writers:  make(map[int]int),
		diverged: make([]bool, numPipelines),
	}
	for i := range g.replicas {
		g.replicas[i] = New(n, m)
	}
	return g
}

// NumPipelines returns the number of replicas.
func (g *ReplicaGroup) NumPipelines() int { return len(g.replicas) }

// Replica returns the SMBM owned by pipeline p, the instance that pipeline's
// filter module reads every cycle. It panics if p is out of range.
func (g *ReplicaGroup) Replica(p int) *SMBM {
	g.checkPipeline(p)
	return g.replicas[p]
}

// AdvanceCycle moves the group to the next logical clock cycle, clearing the
// per-cycle write-contention tracking.
func (g *ReplicaGroup) AdvanceCycle() {
	g.cycle++
	for k := range g.writers {
		delete(g.writers, k)
	}
}

// Cycle returns the current logical cycle number.
func (g *ReplicaGroup) Cycle() uint64 {
	return g.cycle
}

// Add applies an add for resource id, issued from pipeline from, to every
// replica synchronously. A same-cycle write to the same id from a different
// pipeline fails with ErrWriteContention before touching any replica.
func (g *ReplicaGroup) Add(from, id int, metrics []int64) error {
	if err := g.claim(from, id); err != nil {
		return err
	}
	// Validate against the authoritative replica first so a failure leaves
	// all replicas untouched and identical.
	if err := g.replicas[0].Add(id, metrics); err != nil {
		return err
	}
	return g.fanOut("add", id, func(r *SMBM) error { return r.Add(id, metrics) })
}

// Delete applies a delete for resource id from pipeline from to all
// replicas synchronously, with the same contention semantics as Add.
func (g *ReplicaGroup) Delete(from, id int) error {
	if err := g.claim(from, id); err != nil {
		return err
	}
	if err := g.replicas[0].Delete(id); err != nil {
		return err
	}
	return g.fanOut("delete", id, func(r *SMBM) error { return r.Delete(id) })
}

// Update applies an update (delete + add, §5.1.2) from pipeline from to all
// replicas synchronously.
func (g *ReplicaGroup) Update(from, id int, metrics []int64) error {
	if err := g.claim(from, id); err != nil {
		return err
	}
	if err := g.replicas[0].Update(id, metrics); err != nil {
		return err
	}
	return g.fanOut("update", id, func(r *SMBM) error { return r.Update(id, metrics) })
}

// fanOut applies op to every in-sync sibling replica after the
// authoritative replica has already accepted the write. A sibling failure
// marks that replica diverged and is reported as ErrReplicaDivergence, but
// the remaining healthy siblings still receive the write so they stay
// consistent with the authority — divergence is contained to the failed
// pipeline instead of crashing the group.
func (g *ReplicaGroup) fanOut(verb string, id int, op func(r *SMBM) error) error {
	var firstErr error
	for p := 1; p < len(g.replicas); p++ {
		if g.diverged[p] {
			continue
		}
		if err := op(g.replicas[p]); err != nil {
			g.diverged[p] = true
			if firstErr == nil {
				firstErr = fmt.Errorf("%w: replica %d on %s id %d: %v",
					ErrReplicaDivergence, p, verb, id, err)
			}
		}
	}
	return firstErr
}

// Diverged returns the (ascending) pipeline indices currently marked out of
// sync with the authoritative replica.
func (g *ReplicaGroup) Diverged() []int {
	var out []int
	for p, d := range g.diverged {
		if d {
			out = append(out, p)
		}
	}
	return out
}

// Resync rebuilds replica p from a snapshot of the authoritative replica
// (pipeline 0) and clears its diverged mark, returning it to the broadcast
// set. It is the recovery half of the quarantine protocol: the data plane
// keeps serving from healthy replicas while the control plane calls Resync
// on the failed pipeline. Resyncing replica 0 is rejected — it is the
// authority the others are rebuilt from. The caller must not read replica p
// concurrently with Resync.
func (g *ReplicaGroup) Resync(p int) error {
	g.checkPipeline(p)
	if p == 0 {
		return errors.New("smbm: cannot resync authoritative replica 0")
	}
	base := g.replicas[0]
	fresh := New(base.Capacity(), base.NumMetrics())
	for _, id := range base.Members().IDs() {
		vals, ok := base.Metrics(id)
		if !ok {
			return fmt.Errorf("smbm: resync: id %d vanished from authority", id)
		}
		if err := fresh.Add(id, vals); err != nil {
			return fmt.Errorf("smbm: resync replica %d: %w", p, err)
		}
	}
	g.replicas[p] = fresh
	g.diverged[p] = false
	return nil
}

// InSync reports whether all non-diverged replicas hold identical contents,
// the correctness condition for the synchronous-update design. Replicas
// already marked diverged are excluded: they are known-bad and awaiting
// Resync, and must not fail the healthy set's invariant.
func (g *ReplicaGroup) InSync() bool {
	base := g.replicas[0]
	ids := base.Members().IDs()
	for p, r := range g.replicas[1:] {
		if g.diverged[p+1] {
			continue
		}
		if r.Size() != base.Size() {
			return false
		}
		for _, id := range ids {
			a, okA := base.Metrics(id)
			b, okB := r.Metrics(id)
			if okA != okB {
				return false
			}
			for j := range a {
				if a[j] != b[j] {
					return false
				}
			}
		}
	}
	return true
}

func (g *ReplicaGroup) claim(from, id int) error {
	g.checkPipeline(from)
	if prev, dirty := g.writers[id]; dirty && prev != from {
		return fmt.Errorf("%w: id %d written by pipelines %d and %d in cycle %d",
			ErrWriteContention, id, prev, from, g.cycle)
	}
	g.writers[id] = from
	return nil
}

func (g *ReplicaGroup) checkPipeline(p int) {
	if p < 0 || p >= len(g.replicas) {
		panic(fmt.Sprintf("smbm: pipeline %d out of range [0,%d)", p, len(g.replicas)))
	}
}
