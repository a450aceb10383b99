package smbm

import (
	"math/rand"
	"sort"
	"testing"
)

// oracle is the naive reference implementation of the SMBM semantics: every
// dimension is a plain sorted slice, maintained by stable insertion (FIFO
// tie-break on equal values, exactly §5.1.1's ordering). It is O(n) per
// operation and obviously correct, which is the point.
type oracle struct {
	n, m int
	// ids is the id dimension: entries sorted by id (ids are unique).
	ids []int
	// dims[j] is metric dimension j: (value, owner id) pairs in sorted
	// order, FIFO on ties.
	dims [][]oracleEntry
	vals map[int][]int64
}

type oracleEntry struct {
	val int64
	id  int
}

func newOracle(n, m int) *oracle {
	return &oracle{n: n, m: m, dims: make([][]oracleEntry, m), vals: map[int][]int64{}}
}

func (o *oracle) contains(id int) bool { _, ok := o.vals[id]; return ok }

func (o *oracle) add(id int, metrics []int64) bool {
	if id < 0 || id >= o.n || o.contains(id) || len(o.ids) >= o.n || len(metrics) != o.m {
		return false
	}
	pos := sort.SearchInts(o.ids, id)
	o.ids = append(o.ids, 0)
	copy(o.ids[pos+1:], o.ids[pos:])
	o.ids[pos] = id
	for j := 0; j < o.m; j++ {
		col := o.dims[j]
		// First strictly greater entry: new values go after equal ones.
		p := sort.Search(len(col), func(i int) bool { return col[i].val > metrics[j] })
		col = append(col, oracleEntry{})
		copy(col[p+1:], col[p:])
		col[p] = oracleEntry{val: metrics[j], id: id}
		o.dims[j] = col
	}
	o.vals[id] = append([]int64(nil), metrics...)
	return true
}

func (o *oracle) del(id int) bool {
	if !o.contains(id) {
		return false
	}
	pos := sort.SearchInts(o.ids, id)
	o.ids = append(o.ids[:pos], o.ids[pos+1:]...)
	for j := 0; j < o.m; j++ {
		col := o.dims[j]
		for p := range col {
			if col[p].id == id {
				o.dims[j] = append(col[:p], col[p+1:]...)
				break
			}
		}
	}
	delete(o.vals, id)
	return true
}

func (o *oracle) update(id int, metrics []int64) bool {
	// §5.1.2: update is delete followed by add, which moves the entry to
	// the back of its equal-value run in every dimension.
	if !o.contains(id) || len(metrics) != o.m {
		return false
	}
	o.del(id)
	o.add(id, metrics)
	return true
}

// compare checks the SMBM against the oracle exhaustively: membership, every
// dimension's full order (values and owning ids, which crosses the reverse
// metric→id pointers), every id's metric tuple (which crosses the forward
// id→metric pointers), and the structural invariants.
func (o *oracle) compare(t *testing.T, s *SMBM, step int) {
	t.Helper()
	if err := s.CheckInvariants(); err != nil {
		t.Fatalf("step %d: invariants: %v", step, err)
	}
	if s.Size() != len(o.ids) {
		t.Fatalf("step %d: size %d, oracle %d", step, s.Size(), len(o.ids))
	}
	gotIDs := s.MembersView().Clone().IDs()
	for i, id := range o.ids {
		if gotIDs[i] != id {
			t.Fatalf("step %d: member %d is id %d, oracle %d", step, i, gotIDs[i], id)
		}
	}
	for j := 0; j < o.m; j++ {
		d := s.Dim(j)
		if d.Len() != len(o.dims[j]) {
			t.Fatalf("step %d: dim %d has %d entries, oracle %d", step, j, d.Len(), len(o.dims[j]))
		}
		for p, want := range o.dims[j] {
			if got := d.Value(p); got != want.val {
				t.Fatalf("step %d: dim %d pos %d value %d, oracle %d", step, j, p, got, want.val)
			}
			if got := d.ID(p); got != want.id {
				t.Fatalf("step %d: dim %d pos %d id %d, oracle %d (FIFO tie-break violated?)",
					step, j, p, got, want.id)
			}
		}
	}
	for id, want := range o.vals {
		into := make([]int64, len(want))
		if !s.MetricsInto(id, into) {
			t.Fatalf("step %d: MetricsInto reports id %d missing", step, id)
		}
		for j := range want {
			if into[j] != want[j] {
				t.Fatalf("step %d: id %d metric %d = %d, oracle %d", step, id, j, into[j], want[j])
			}
		}
	}
}

// TestSMBMAgainstOracle drives long randomized add/delete/update/query
// sequences against the naive sorted-slice oracle, comparing every
// dimension's order and all id↔metric pointers after each operation. Values
// are drawn from a small domain so equal-value runs (the FIFO tie-break
// cases, where pointer bugs hide) are common.
func TestSMBMAgainstOracle(t *testing.T) {
	const (
		capN = 48
		m    = 3
		ops  = 10000
	)
	for _, seed := range []int64{1, 2, 3} {
		seed := seed
		t.Run("", func(t *testing.T) {
			t.Parallel()
			r := rand.New(rand.NewSource(seed))
			s := New(capN, m)
			o := newOracle(capN, m)

			randMetrics := func() []int64 {
				v := make([]int64, m)
				for j := range v {
					v[j] = int64(r.Intn(8)) // tiny domain: ties everywhere
				}
				return v
			}

			for step := 0; step < ops; step++ {
				id := r.Intn(capN)
				switch r.Intn(10) {
				case 0, 1, 2, 3: // add
					vals := randMetrics()
					wantOK := o.add(id, vals)
					err := s.Add(id, vals)
					if (err == nil) != wantOK {
						t.Fatalf("step %d: Add(%d) err=%v, oracle ok=%v", step, id, err, wantOK)
					}
				case 4, 5, 6: // delete
					wantOK := o.del(id)
					err := s.Delete(id)
					if (err == nil) != wantOK {
						t.Fatalf("step %d: Delete(%d) err=%v, oracle ok=%v", step, id, err, wantOK)
					}
				case 7, 8: // update
					vals := randMetrics()
					wantOK := o.update(id, vals)
					err := s.Update(id, vals)
					if (err == nil) != wantOK {
						t.Fatalf("step %d: Update(%d) err=%v, oracle ok=%v", step, id, err, wantOK)
					}
				default: // point queries
					if got, want := s.Contains(id), o.contains(id); got != want {
						t.Fatalf("step %d: Contains(%d) = %v, oracle %v", step, id, got, want)
					}
					if o.contains(id) {
						dim := r.Intn(m)
						got, ok := s.Value(id, dim)
						if !ok || got != o.vals[id][dim] {
							t.Fatalf("step %d: Value(%d,%d) = (%d,%v), oracle %d",
								step, id, dim, got, ok, o.vals[id][dim])
						}
					}
				}
				o.compare(t, s, step)
			}
		})
	}
}

// TestSMBMOracleFullTable drives the structure at exactly full capacity,
// where ErrFull and the last-slot shift paths are exercised.
func TestSMBMOracleFullTable(t *testing.T) {
	const capN, m = 8, 2
	r := rand.New(rand.NewSource(42))
	s := New(capN, m)
	o := newOracle(capN, m)
	for id := 0; id < capN; id++ {
		vals := []int64{int64(r.Intn(4)), int64(r.Intn(4))}
		if !o.add(id, vals) || s.Add(id, vals) != nil {
			t.Fatal("fill failed")
		}
	}
	o.compare(t, s, -1)
	if err := s.Add(0, []int64{0, 0}); err == nil {
		t.Fatal("add to full table with duplicate id succeeded")
	}
	// A full table still accepts updates (delete+add frees the slot).
	for step := 0; step < 500; step++ {
		id := r.Intn(capN)
		vals := []int64{int64(r.Intn(4)), int64(r.Intn(4))}
		if !o.update(id, vals) || s.Update(id, vals) != nil {
			t.Fatalf("step %d: update at capacity failed", step)
		}
		o.compare(t, s, step)
	}
}

// TestSMBMOracleChurnBurst drives the interleaved churn pattern the batch
// amortization targets: storms of adds, then value updates, then deletes,
// with phase boundaries crossing so the table swings between near-empty and
// near-full. PosInDim and Version are cross-checked along the way.
func TestSMBMOracleChurnBurst(t *testing.T) {
	const (
		capN = 64
		m    = 4
	)
	r := rand.New(rand.NewSource(7))
	s := New(capN, m)
	o := newOracle(capN, m)
	randMetrics := func() []int64 {
		v := make([]int64, m)
		for j := range v {
			v[j] = int64(r.Intn(6)) // tiny domain: ties everywhere
		}
		return v
	}
	step := 0
	lastVersion := s.Version()
	for burst := 0; burst < 60; burst++ {
		ids := r.Perm(capN)[:1+r.Intn(capN-1)]
		mutated := false
		switch burst % 3 {
		case 0: // add storm
			for _, id := range ids {
				vals := randMetrics()
				wantOK := o.add(id, vals)
				if err := s.Add(id, vals); (err == nil) != wantOK {
					t.Fatalf("step %d: Add(%d) err=%v, oracle ok=%v", step, id, err, wantOK)
				}
				mutated = mutated || wantOK
				step++
			}
		case 1: // update storm
			for _, id := range ids {
				vals := randMetrics()
				wantOK := o.update(id, vals)
				if err := s.Update(id, vals); (err == nil) != wantOK {
					t.Fatalf("step %d: Update(%d) err=%v, oracle ok=%v", step, id, err, wantOK)
				}
				mutated = mutated || wantOK
				step++
			}
		default: // delete storm
			for _, id := range ids {
				wantOK := o.del(id)
				if err := s.Delete(id); (err == nil) != wantOK {
					t.Fatalf("step %d: Delete(%d) err=%v, oracle ok=%v", step, id, err, wantOK)
				}
				mutated = mutated || wantOK
				step++
			}
		}
		o.compare(t, s, step)
		// Every dimension's forward pointer agrees with the sorted column.
		for j := 0; j < m; j++ {
			d := s.Dim(j)
			for p := 0; p < d.Len(); p++ {
				if got := s.PosInDim(d.ID(p), j); got != p {
					t.Fatalf("step %d: PosInDim(%d,%d) = %d, want %d", step, d.ID(p), j, got, p)
				}
			}
		}
		for id := 0; id < capN; id++ {
			if !s.Contains(id) {
				if got := s.PosInDim(id, 0); got != -1 {
					t.Fatalf("step %d: PosInDim of absent id %d = %d", step, id, got)
				}
			}
		}
		if v := s.Version(); mutated && v <= lastVersion {
			t.Fatalf("step %d: version did not advance across a mutating burst (%d -> %d)", step, lastVersion, v)
		} else {
			lastVersion = v
		}
	}
}

// pos is id's position in dimension j, or -1 when id is absent.
func (o *oracle) pos(id, j int) int {
	for p, e := range o.dims[j] {
		if e.id == id {
			return p
		}
	}
	return -1
}

// TestSMBMOracleDeferredPositions drives bursts of adds and deletes and
// after each burst runs the position readers in random order — PosInDim, a
// min and a max over a sparse input (the UFPU's read), Update, Delete, Copy,
// Diff and CheckInvariants — each against the naive oracle and each behind
// one more add, which leaves position pointers stale. An eager twin
// receives the same writes and is repaired after every one, the pointer
// state eager renumbering keeps; the deferred table must compare equal to it
// (Diff reads no pointer) and pass the non-repairing check between readers.
// A copy of the freshly installed table, as an engine rebuild copies shard
// 0's table, opens the run.
func TestSMBMOracleDeferredPositions(t *testing.T) {
	const (
		capN = 64
		m    = 3
	)
	r := rand.New(rand.NewSource(13))
	s, eager := New(capN, m), New(capN, m)
	o := newOracle(capN, m)
	randMetrics := func() []int64 {
		v := make([]int64, m)
		for j := range v {
			v[j] = int64(r.Intn(6)) // tiny domain: ties everywhere
		}
		return v
	}
	step := 0
	// check compares s with the oracle without repairing s.
	check := func(what string) {
		t.Helper()
		o.compare(t, eager, step)
		if err := s.checkLazy(); err != nil {
			t.Fatalf("step %d after %s: %v", step, what, err)
		}
		if err := s.Diff(eager); err != nil {
			t.Fatalf("step %d after %s: deferred vs eager: %v", step, what, err)
		}
		if err := eager.Diff(s); err != nil {
			t.Fatalf("step %d after %s: eager vs deferred: %v", step, what, err)
		}
	}
	write := func(id int, add bool) {
		t.Helper()
		var err, eagerErr error
		wantOK := false
		if add {
			vals := randMetrics()
			wantOK = o.add(id, vals)
			err, eagerErr = s.Add(id, vals), eager.Add(id, vals)
		} else {
			wantOK = o.del(id)
			err, eagerErr = s.Delete(id), eager.Delete(id)
		}
		if (err == nil) != wantOK || (eagerErr == nil) != wantOK {
			t.Fatalf("step %d: add=%v id %d: err=%v eager err=%v, oracle ok=%v", step, add, id, err, eagerErr, wantOK)
		}
		if err := eager.CheckInvariants(); err != nil {
			t.Fatalf("step %d: eager twin: %v", step, err)
		}
		step++
	}
	copyAndCompare := func() {
		t.Helper()
		c := s.Copy()
		o.compare(t, c, step)
		if err := c.Diff(s); err != nil {
			t.Fatalf("step %d: copy vs source: %v", step, err)
		}
	}

	// Install, then copy at once: the resync case.
	for _, id := range r.Perm(capN) {
		write(id, true)
	}
	copyAndCompare()

	staleReads := 0
	readers := []func(){
		func() { // PosInDim, present and absent ids
			for k := 0; k < 8; k++ {
				id, j := r.Intn(capN), r.Intn(m)
				if got, want := s.PosInDim(id, j), o.pos(id, j); got != want {
					t.Fatalf("step %d: PosInDim(%d,%d) = %d, oracle %d", step, id, j, got, want)
				}
			}
			check("PosInDim")
		},
		func() { // min and max over a sparse input, as a UFPU reads them
			in := map[int]bool{}
			for k := 1 + r.Intn(6); k > 0; k-- {
				in[r.Intn(capN)] = true
			}
			j := r.Intn(m)
			minID, maxID, minP, maxP := -1, -1, -1, -1
			for id := 0; id < capN; id++ {
				if !in[id] || !s.Contains(id) {
					continue
				}
				p := s.PosInDim(id, j)
				if minP < 0 || p < minP {
					minID, minP = id, p
				}
				if p > maxP {
					maxID, maxP = id, p
				}
			}
			wantMin, wantMax := -1, -1
			for _, e := range o.dims[j] {
				if in[e.id] {
					if wantMin < 0 {
						wantMin = e.id
					}
					wantMax = e.id
				}
			}
			if minID != wantMin || maxID != wantMax {
				t.Fatalf("step %d: dim %d min/max = %d/%d, oracle %d/%d", step, j, minID, maxID, wantMin, wantMax)
			}
			check("min/max")
		},
		func() { // Update
			id, vals := r.Intn(capN), randMetrics()
			wantOK := o.update(id, vals)
			if err := s.Update(id, vals); (err == nil) != wantOK {
				t.Fatalf("step %d: Update(%d) err=%v, oracle ok=%v", step, id, err, wantOK)
			}
			if err := eager.Update(id, vals); (err == nil) != wantOK {
				t.Fatalf("step %d: eager Update(%d) err=%v, oracle ok=%v", step, id, err, wantOK)
			}
			step++
			check("Update")
		},
		func() { // Delete
			write(r.Intn(capN), false)
			check("Delete")
		},
		func() { // Copy of a possibly stale table, then Diff against it
			copyAndCompare()
			check("Copy")
		},
		func() { // Diff alone reads no pointer
			check("Diff")
		},
		func() { // CheckInvariants repairs, after which every pointer is exact
			if err := s.CheckInvariants(); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			for j := 0; j < m; j++ {
				for p, e := range o.dims[j] {
					if got := int(s.pos[e.id*m+j]); got != p {
						t.Fatalf("step %d: after CheckInvariants pos of id %d in dim %d = %d, oracle %d", step, e.id, j, got, p)
					}
				}
			}
			check("CheckInvariants")
		},
	}

	for burst := 0; burst < 200; burst++ {
		for k := 1 + r.Intn(24); k > 0; k-- {
			id := r.Intn(capN)
			write(id, !o.contains(id))
		}
		for _, i := range r.Perm(len(readers)) {
			for _, id := range r.Perm(capN) {
				if !o.contains(id) {
					write(id, true)
					break
				}
			}
			for j := 0; j < m; j++ {
				if s.stale[j] < s.Size() {
					staleReads++
					break
				}
			}
			readers[i]()
		}
	}
	if staleReads < 200*len(readers)*3/4 {
		t.Fatalf("only %d readers met a stale dimension; the deferred state went untested", staleReads)
	}
}
