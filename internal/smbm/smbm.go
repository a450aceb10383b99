// Package smbm implements the Sorted Multidimensional Bidirectional Map
// (SMBM), the hardware data structure Thanos uses to store the resource
// table (§5.1 of the paper).
//
// An SMBM with capacity N and M metrics holds up to N resources, each with a
// unique id in [0, N) and M integer metric values. It maintains M+1
// dimensions: the resource-id dimension plus one dimension per metric. Every
// dimension is a flat sorted list (increasing order; FIFO tie-break for
// equal values), and the structure keeps bidirectional pointers between the
// id dimension and each metric dimension, so a resource's id maps to each of
// its metric entries and each metric entry maps back to its id.
//
// The representation is columnar, mirroring the hardware's per-dimension
// register files: each metric dimension is a pair of flat arrays (sorted
// values and owning ids) carved from one contiguous arena, and the
// bidirectional pointers are id-indexed arrays giving every present
// resource's position and value in each dimension in O(1). Because sorted
// positions point at ids rather than at slots of the id list, moving entries
// in one dimension never touches another.
//
// Both halves of an insert's cost are deferred to the first read that needs
// them. Add appends the new (value, id) pair behind each dimension's sorted
// prefix; the first read that needs sorted order (Dim, PosInDim, Update,
// Delete, Copy, CheckInvariants, Diff) settles the tail: it sorts the tail
// stably by value and merges it backwards into the prefix, moving every
// prefix entry at most once, so an N-row install costs one sort per
// dimension instead of N shifts. Ties break as sequential inserts break
// them: existing equal values stay ahead of new ones, and equal new values
// keep their add order. Each dimension also keeps a stale watermark, the
// first position whose id → position pointer may be out of date; a merge
// only lowers it, and the first read that needs an exact position renumbers
// the stale suffix once, in one sequential pass. Such reads therefore
// write, and need the same exclusion as a write. A delete or update then
// renumbers only the entries it moves. Add, Contains, Value, MetricsInto,
// MembersView, Size and Version never settle.
//
// The functional model mirrors the hardware costs: add and delete each take
// exactly WriteCycles (2) clock cycles and the structure can be read in full
// every cycle. Writes are atomic — the visible state always corresponds to a
// completed operation, matching §5.1.4.
package smbm

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/bitvec"
	"repro/internal/hw"
	"repro/internal/telemetry"
)

// WriteCycles is the latency of an add or delete operation in clock cycles
// (§5.1.3: "The latency of both write operations is two clock cycles").
const WriteCycles = 2

// Errors returned by SMBM write operations.
var (
	ErrFull         = errors.New("smbm: table full")
	ErrDuplicateID  = errors.New("smbm: resource id already present")
	ErrNotFound     = errors.New("smbm: resource id not present")
	ErrBadID        = errors.New("smbm: resource id out of range")
	ErrMetricsArity = errors.New("smbm: wrong number of metric values")
)

// ErrReplicaDivergence reports a broadcast write that the engine's shard 0,
// which validates every write, accepted but another pipeline replica
// rejected: that replica no longer mirrors shard 0 (memory corruption, a
// missed update) and must be rebuilt from it. The engine rebuilds it inside
// the write that found it.
var ErrReplicaDivergence = errors.New("smbm: replica divergence")

// SMBM is a sorted multidimensional bidirectional map. It is not safe for
// concurrent use; the multi-pipeline replication scheme of §5.1.5 is modeled
// by the sharded decision engine (internal/engine), one SMBM per pipeline.
type SMBM struct {
	n, m    int
	size    int
	version uint64

	// Per-metric columns, both len size and carved from contiguous arenas.
	// Positions below sorted are every dimension's sorted prefix: vals[j][p]
	// is the p-th smallest value of metric j and dimIDs[j][p] the id owning
	// it (the metric → id pointer). Positions [sorted, size) are the tail,
	// the rows added since the last settle, in add order.
	vals   [][]int64
	dimIDs [][]int32
	sorted int

	// Id-indexed pointer columns, valid while an id is present: the id →
	// metric pointer pos[id*m+j] gives id's position in dimension j, and
	// valByID[id*m+j] caches its value there for O(1) reads. pos is exact
	// for the entries at positions below stale[j] in dimension j, and
	// stale[j] <= sorted; stale[j] == size means the whole dimension is
	// settled and exact.
	pos     []int32
	valByID []int64
	stale   []int

	// Merge scratch for settle: the tail, sorted, while it merges into the
	// prefix. It grows to the longest tail of two or more entries settled so
	// far and is shared by every dimension.
	tailVals []int64
	tailIDs  []int32

	members *bitvec.Vector // maintained incrementally by Add/Delete
	clock   hw.Clock
	tel     *telemetry.TableStats // nil unless AttachTelemetry was called
}

// AttachTelemetry wires op counters and the size gauge into this table
// (§5.1 observability: add/delete/update counts, hot-path reads, live
// size). Pass nil to detach. Reads is incremented on the Value fast path,
// so the handles must come from a telemetry.Registry — their increments
// are single atomic adds and keep the read path allocation- and lock-free.
func (s *SMBM) AttachTelemetry(t *telemetry.TableStats) {
	s.tel = t
	if t != nil {
		t.Size.Set(int64(s.size))
	}
}

// New returns an empty SMBM with capacity n resources and m metric
// dimensions. It panics if n <= 0 or m < 0.
func New(n, m int) *SMBM {
	if n <= 0 {
		panic("smbm: capacity must be positive")
	}
	if m < 0 {
		panic("smbm: metric count must be non-negative")
	}
	if n > math.MaxInt32 {
		panic("smbm: capacity exceeds id width")
	}
	s := &SMBM{n: n, m: m, members: bitvec.New(n)}
	if m > 0 {
		// One arena per column kind; each dimension's slice is carved at a
		// stride rounded to 8 entries so dimensions start on separate cache
		// lines and a full-column sweep walks memory sequentially.
		stride := (n + 7) &^ 7
		valArena := make([]int64, stride*m)
		idArena := make([]int32, stride*m)
		s.vals = make([][]int64, m)
		s.dimIDs = make([][]int32, m)
		for j := 0; j < m; j++ {
			s.vals[j] = valArena[j*stride : j*stride : j*stride+n]
			s.dimIDs[j] = idArena[j*stride : j*stride : j*stride+n]
		}
		s.pos = make([]int32, n*m)
		s.valByID = make([]int64, n*m)
		s.stale = make([]int, m)
	}
	return s
}

// Copy returns an independent table laid out like New's, holding s's
// contents: every dimension's sorted column, so equal values keep the
// first-in-first-out order their writes gave them (§5.1.2), the pointer
// columns, the version and the cycles consumed. It settles s and repairs
// its position pointers first, so both tables come out exact. No telemetry
// is attached.
func (s *SMBM) Copy() *SMBM {
	s.repairAll()
	c := New(s.n, s.m)
	c.size, c.sorted, c.version, c.clock = s.size, s.sorted, s.version, s.clock
	c.members.CopyFrom(s.members)
	for j := range s.vals {
		c.vals[j] = append(c.vals[j], s.vals[j]...)
		c.dimIDs[j] = append(c.dimIDs[j], s.dimIDs[j]...)
	}
	copy(c.pos, s.pos)
	copy(c.valByID, s.valByID)
	copy(c.stale, s.stale)
	return c
}

// Capacity returns N, the maximum number of resources (and the width of bit
// vectors that index this table).
func (s *SMBM) Capacity() int { return s.n }

// NumMetrics returns M, the number of metric dimensions.
func (s *SMBM) NumMetrics() int { return s.m }

// Size returns the number of resources currently stored.
func (s *SMBM) Size() int { return s.size }

// Cycles returns the cumulative clock cycles consumed by write operations.
func (s *SMBM) Cycles() uint64 { return s.clock.Cycles() }

// Version returns a counter that increments on every successful mutation.
// Derived read-side state (such as a UFPU's cached predicate satisfying
// set) is revalidated by comparing versions instead of subscribing to
// writes.
func (s *SMBM) Version() uint64 { return s.version }

// upperBound returns the first index in the sorted slice a whose value is
// strictly greater than v — the FIFO-tie-break insertion point (§5.1.2: a
// new or updated value goes after all existing equal values).
func upperBound(a []int64, v int64) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if a[mid] <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Add inserts a new resource with the given id and metric values, keeping
// all bidirectional pointers consistent. It consumes exactly WriteCycles
// cycles on success. The paper's two-phase implementation (§5.1.2) — cycle 1:
// parallel search of all lists for insertion points; cycle 2: parallel
// shift-and-write — is deferred to the next sorted read: Add appends the row
// behind each dimension's sorted prefix, and settle places it later, with
// every other row added since, in one merge per dimension.
func (s *SMBM) Add(id int, metrics []int64) error {
	if id < 0 || id >= s.n {
		return fmt.Errorf("%w: %d not in [0,%d)", ErrBadID, id, s.n)
	}
	if len(metrics) != s.m {
		return fmt.Errorf("%w: got %d, want %d", ErrMetricsArity, len(metrics), s.m)
	}
	if s.size >= s.n {
		return ErrFull
	}
	if s.members.Get(id) {
		return fmt.Errorf("%w: %d", ErrDuplicateID, id)
	}

	for j := 0; j < s.m; j++ {
		v := metrics[j]
		s.vals[j] = append(s.vals[j], v)
		s.dimIDs[j] = append(s.dimIDs[j], int32(id))
		s.valByID[id*s.m+j] = v
	}
	s.size++
	s.members.Set(id)
	s.version++

	s.clock.Tick(WriteCycles)
	if t := s.tel; t != nil {
		t.Adds.Inc()
		t.Size.Set(int64(s.size))
	}
	s.assertConsistent("Add")
	return nil
}

// settle merges the tail into the sorted prefix of every dimension, so every
// position below size is sorted. Settled tables cost one compare.
func (s *SMBM) settle() {
	if s.sorted != s.size {
		s.mergeTails()
	}
}

// mergeTails is settle's slow path, out of line so the check inlines.
func (s *SMBM) mergeTails() {
	for j := 0; j < s.m; j++ {
		s.mergeTail(j)
	}
	s.sorted = s.size
}

// mergeTail settles dimension j. The tail, sorted stably by value, is merged
// backwards: each tail entry, largest first, goes to its upperBound in the
// part of the prefix not yet moved, and the block above that point moves up
// by the number of tail entries still to place, in one copy. Every prefix
// entry moves at most once, an existing equal value stays ahead of a new
// one, and equal new values keep their add order — the order sequential
// inserts with the FIFO tie-break (§5.1.2) would have given. A one-entry
// tail is one binary search and one block move, an eager insert's cost. The
// stale watermark drops to the lowest slot the merge wrote.
func (s *SMBM) mergeTail(j int) {
	col, idsj := s.vals[j], s.dimIDs[j]
	tv, ti := s.sortTail(col[s.sorted:], idsj[s.sorted:])
	hi := s.sorted // prefix entries at [hi, sorted) have moved
	for i := len(tv) - 1; i >= 0; i-- {
		v, id := tv[i], ti[i]
		p := upperBound(col[:hi], v)
		copy(col[p+i+1:hi+i+1], col[p:hi])
		copy(idsj[p+i+1:hi+i+1], idsj[p:hi])
		col[p+i], idsj[p+i] = v, id
		hi = p
	}
	s.stale[j] = min(s.stale[j], hi)
}

// signBit flips an int64's sign so that its bits order as an unsigned key.
const signBit = 1 << 63

// sortTail returns the tail entries (vals[i], ids[i]) sorted stably by value.
// A one-entry tail comes back as is; a longer one is sorted by an LSD radix
// sort on the sign-flipped value that skips every byte all the values share,
// ping-ponging between the tail itself and the merge scratch, and comes back
// in the scratch, since the merge overwrites the tail's slots.
func (s *SMBM) sortTail(vals []int64, ids []int32) ([]int64, []int32) {
	k := len(vals)
	if k < 2 {
		return vals, ids
	}
	if cap(s.tailVals) < k {
		s.tailVals, s.tailIDs = make([]int64, k), make([]int32, k)
	}
	bv, bi := s.tailVals[:k], s.tailIDs[:k]
	var differ uint64 // bits where some value differs from the first
	for _, v := range vals[1:] {
		differ |= uint64(v ^ vals[0])
	}
	src, srcIDs, dst, dstIDs := vals, ids, bv, bi
	for shift := uint(0); shift < 64; shift += 8 {
		if byte(differ>>shift) == 0 {
			continue
		}
		var start [256]int
		for _, v := range src {
			start[byte((uint64(v)^signBit)>>shift)]++
		}
		sum := 0
		for b, c := range start {
			start[b], sum = sum, sum+c
		}
		for i, v := range src {
			b := byte((uint64(v) ^ signBit) >> shift)
			dst[start[b]], dstIDs[start[b]] = v, srcIDs[i]
			start[b]++
		}
		src, srcIDs, dst, dstIDs = dst, dstIDs, src, srcIDs
	}
	if &src[0] != &bv[0] {
		copy(bv, src)
		copy(bi, srcIDs)
	}
	return bv, bi
}

// Delete removes the resource with the given id. It consumes exactly
// WriteCycles cycles on success. Finding the entry needs its exact position,
// so Delete settles the table and repairs each stale dimension first, then
// renumbers the suffix it shifts and leaves every dimension exact.
func (s *SMBM) Delete(id int) error {
	if id < 0 || id >= s.n || !s.members.Get(id) {
		return fmt.Errorf("%w: %d", ErrNotFound, id)
	}

	for j := 0; j < s.m; j++ {
		s.repair(j)
		p := int(s.pos[id*s.m+j])
		col := s.vals[j]
		copy(col[p:], col[p+1:])
		s.vals[j] = col[:s.size-1]

		idsj := s.dimIDs[j]
		copy(idsj[p:], idsj[p+1:])
		idsj = idsj[:s.size-1]
		s.dimIDs[j] = idsj
		for q := p; q < len(idsj); q++ {
			s.pos[int(idsj[q])*s.m+j] = int32(q)
		}
		s.stale[j] = len(idsj)
	}
	s.size--
	s.sorted = s.size
	s.members.Clear(id)
	s.version++

	s.clock.Tick(WriteCycles)
	if t := s.tel; t != nil {
		t.Deletes.Inc()
		t.Size.Set(int64(s.size))
	}
	s.assertConsistent("Delete")
	return nil
}

// Update replaces the metric values of an existing resource. Per §5.1.2 it
// is a delete followed by an add, consuming 2×WriteCycles — but because the
// entry leaves and re-enters every dimension in the same pass, each
// dimension performs one displacement-bounded rotate: only the entries
// between the old and new sorted positions move, so an update that barely
// changes a value (the steady-state probe pattern) costs O(log n) search
// and a near-empty move instead of two full shifts. It settles the table and
// repairs each stale dimension first, then renumbers exactly the entries it
// moves, so it leaves every dimension exact.
func (s *SMBM) Update(id int, metrics []int64) error {
	if len(metrics) != s.m {
		return fmt.Errorf("%w: got %d, want %d", ErrMetricsArity, len(metrics), s.m)
	}
	if id < 0 || id >= s.n || !s.members.Get(id) {
		return fmt.Errorf("%w: %d", ErrNotFound, id)
	}

	for j := 0; j < s.m; j++ {
		s.repair(j)
		v := metrics[j]
		col := s.vals[j]
		idsj := s.dimIDs[j]
		p := int(s.pos[id*s.m+j])
		// FIFO tie-break: the updated entry re-enters after every equal
		// value, so the target is the first strictly-greater position.
		q := upperBound(col, v)
		var newp int
		switch {
		case q > p+1:
			// Entry moves right: (p, q) shifts left one to close the gap.
			copy(col[p:q-1], col[p+1:q])
			copy(idsj[p:q-1], idsj[p+1:q])
			for t := p; t < q-1; t++ {
				s.pos[int(idsj[t])*s.m+j] = int32(t)
			}
			newp = q - 1
		case q < p:
			// Entry moves left: [q, p) shifts right one to open the slot.
			copy(col[q+1:p+1], col[q:p])
			copy(idsj[q+1:p+1], idsj[q:p])
			for t := q + 1; t <= p; t++ {
				s.pos[int(idsj[t])*s.m+j] = int32(t)
			}
			newp = q
		default:
			// q == p or q == p+1: the new value sorts where the old one was.
			newp = p
		}
		col[newp] = v
		idsj[newp] = int32(id)
		s.pos[id*s.m+j] = int32(newp)
		s.valByID[id*s.m+j] = v
	}
	s.version++

	// Cost model: the constituent delete+add pair of cycles and op counts,
	// plus the logical update count.
	s.clock.Tick(2 * WriteCycles)
	if t := s.tel; t != nil {
		t.Deletes.Inc()
		t.Adds.Inc()
		t.Updates.Inc()
		t.Size.Set(int64(s.size))
	}
	s.assertConsistent("Update")
	return nil
}

// Upsert adds the resource if absent or updates it if present.
func (s *SMBM) Upsert(id int, metrics []int64) error {
	if s.Contains(id) {
		return s.Update(id, metrics)
	}
	return s.Add(id, metrics)
}

// Contains reports whether a resource with the given id is present.
func (s *SMBM) Contains(id int) bool {
	return id >= 0 && id < s.n && s.members.Get(id)
}

// MetricsInto overwrites dst with the metric values for the given id and
// reports whether the id is present; absent, dst is untouched. dst must have
// length NumMetrics().
func (s *SMBM) MetricsInto(id int, dst []int64) bool {
	if !s.Contains(id) {
		return false
	}
	copy(dst, s.valByID[id*s.m:id*s.m+s.m])
	return true
}

// Value returns the value of metric dim for the given id, or ok=false if
// the id is absent. It panics if dim is out of range.
func (s *SMBM) Value(id, dim int) (val int64, ok bool) {
	s.checkDim(dim)
	if t := s.tel; t != nil {
		t.Reads.Inc()
	}
	if !s.Contains(id) {
		return 0, false
	}
	return s.valByID[id*s.m+dim], true
}

// PosInDim returns the sorted position of the given id within metric
// dimension dim, or -1 if the id is absent — the id → metric pointer of
// §5.1.1, resolved in O(1) once the dimension is exact. The first call after
// an add or a shift settles the table and repairs the dimension's stale
// suffix, so PosInDim writes and needs the same exclusion as a table write.
// It panics if dim is out of range.
func (s *SMBM) PosInDim(id, dim int) int {
	s.checkDim(dim)
	if !s.Contains(id) {
		return -1
	}
	s.repair(dim)
	return int(s.pos[id*s.m+dim])
}

// repair settles the table and makes dimension j's position pointers exact:
// one sequential pass renumbers the entries from its stale watermark to the
// end, which is at most what the shifts since the last repair would have
// renumbered eagerly. Exact dimensions cost one compare.
func (s *SMBM) repair(j int) {
	if s.stale[j] != s.size {
		s.renumber(j)
	}
}

// renumber is repair's slow path, out of line so the check inlines.
func (s *SMBM) renumber(j int) {
	s.settle()
	idsj := s.dimIDs[j]
	for q := s.stale[j]; q < len(idsj); q++ {
		s.pos[int(idsj[q])*s.m+j] = int32(q)
	}
	s.stale[j] = len(idsj)
}

// repairAll makes every dimension exact.
func (s *SMBM) repairAll() {
	for j := 0; j < s.m; j++ {
		s.repair(j)
	}
}

// MembersInto overwrites dst with the current membership vector. dst must
// have width Capacity().
func (s *SMBM) MembersInto(dst *bitvec.Vector) {
	dst.CopyFrom(s.members)
}

// MembersView returns the table's internal membership vector, maintained
// incrementally by Add and Delete. The caller must treat it as read-only;
// it changes in place on every table write. It exists so the per-packet
// filter datapath can mask inputs against membership without allocating.
func (s *SMBM) MembersView() *bitvec.Vector {
	return s.members
}

// Dim provides read access to one sorted metric dimension, the view a UFPU
// copies into its temp_list in its first clock cycle (§5.2.1). Positions run
// 0..Len()-1 in sorted (increasing) order. A view is valid until the next
// write to the table: an Add appends behind the sorted prefix, and only the
// next Dim call merges it in.
type Dim struct {
	s   *SMBM
	dim int
}

// Dim returns a view of metric dimension dim, settling the table first, so
// like PosInDim it needs the exclusion a write needs. It panics if dim is
// out of range [0, NumMetrics()).
func (s *SMBM) Dim(dim int) Dim {
	s.checkDim(dim)
	s.settle()
	return Dim{s: s, dim: dim}
}

// Len returns the number of entries in the dimension (== Size()).
func (d Dim) Len() int { return d.s.size }

// Value returns the metric value at sorted position pos.
func (d Dim) Value(pos int) int64 { return d.s.vals[d.dim][pos] }

// ID returns the resource id owning the entry at sorted position pos,
// resolved through the reverse (metric → id) pointer.
func (d Dim) ID(pos int) int {
	return int(d.s.dimIDs[d.dim][pos])
}

// IDsSorted returns all present resource ids in increasing order of this
// dimension's metric value (FIFO tie-break preserved).
func (d Dim) IDsSorted() []int {
	out := make([]int, d.Len())
	for p := range out {
		out[p] = int(d.s.dimIDs[d.dim][p])
	}
	return out
}

// CheckInvariants verifies every structural invariant of the SMBM:
// dimensions sorted, pointer bidirectionality, consistent sizes, unique ids.
// It settles the table and repairs the position pointers first, so every
// pointer is checked, and like PosInDim it needs the exclusion a write
// needs. It returns a descriptive error on the first violation. Intended for
// tests and fuzzing.
func (s *SMBM) CheckInvariants() error {
	s.repairAll()
	return s.checkLazy()
}

// checkLazy verifies the invariants without settling or repairing anything:
// sizes, membership, the sorted prefix's and each watermark's bounds, a
// sorted prefix, member ids at every position, the value cache at every
// position (tail included), and the position pointers below each watermark.
// With the table settled and every dimension exact that is the full
// invariant set.
func (s *SMBM) checkLazy() error {
	if s.size < 0 || s.size > s.n {
		return fmt.Errorf("size %d out of range [0,%d]", s.size, s.n)
	}
	if s.sorted < 0 || s.sorted > s.size {
		return fmt.Errorf("sorted prefix %d out of range [0,%d]", s.sorted, s.size)
	}
	if s.members.Count() != s.size {
		return fmt.Errorf("membership vector has %d bits set, want size %d", s.members.Count(), s.size)
	}
	for j := 0; j < s.m; j++ {
		col, idsj := s.vals[j], s.dimIDs[j]
		if len(col) != s.size || len(idsj) != s.size {
			return fmt.Errorf("metric %d has %d values and %d ids, want size %d", j, len(col), len(idsj), s.size)
		}
		if s.stale[j] < 0 || s.stale[j] > s.sorted {
			return fmt.Errorf("metric %d stale watermark %d out of range [0,%d]", j, s.stale[j], s.sorted)
		}
		for p := 1; p < s.sorted; p++ {
			if col[p-1] > col[p] {
				return fmt.Errorf("metric %d not sorted at %d", j, p)
			}
		}
		for p := 0; p < s.size; p++ {
			id := int(idsj[p])
			if id < 0 || id >= s.n {
				return fmt.Errorf("metric %d pos %d: id %d out of range", j, p, id)
			}
			if !s.members.Get(id) {
				return fmt.Errorf("metric %d pos %d: id %d not a member", j, p, id)
			}
			if got := int(s.pos[id*s.m+j]); p < s.stale[j] && got != p {
				return fmt.Errorf("pointer mismatch: metric %d pos %d -> id %d -> metric pos %d", j, p, id, got)
			}
			if s.valByID[id*s.m+j] != col[p] {
				return fmt.Errorf("value cache mismatch: metric %d pos %d id %d: %d != %d",
					j, p, id, s.valByID[id*s.m+j], col[p])
			}
		}
	}
	return nil
}

// Diff returns nil when s and o hold the same resources with the same values
// in the same order in every dimension, ties included, so that every filter
// answers alike over both; otherwise it describes the first difference.
// Version and cycles are history, not contents, and are not compared. It
// settles both tables first, so it needs the exclusion a write needs on
// both.
func (s *SMBM) Diff(o *SMBM) error {
	if s.n != o.n || s.m != o.m {
		return fmt.Errorf("capacity %d with %d metrics, other has %d with %d", s.n, s.m, o.n, o.m)
	}
	if s.size != o.size {
		return fmt.Errorf("holds %d resources, other holds %d", s.size, o.size)
	}
	for id := 0; id < s.n; id++ {
		if s.Contains(id) != o.Contains(id) {
			return fmt.Errorf("id %d present %v, in other %v", id, s.Contains(id), o.Contains(id))
		}
	}
	s.settle()
	o.settle()
	for j := 0; j < s.m; j++ {
		for p := 0; p < s.size; p++ {
			if s.dimIDs[j][p] != o.dimIDs[j][p] || s.vals[j][p] != o.vals[j][p] {
				return fmt.Errorf("metric %d position %d holds id %d = %d, other holds id %d = %d",
					j, p, s.dimIDs[j][p], s.vals[j][p], o.dimIDs[j][p], o.vals[j][p])
			}
		}
	}
	return nil
}

func (s *SMBM) checkDim(dim int) {
	if dim < 0 || dim >= s.m {
		panic(fmt.Sprintf("smbm: dimension %d out of range [0,%d)", dim, s.m))
	}
}
