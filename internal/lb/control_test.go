package lb

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/sim"
)

// fakeBackend is a scriptable Backend: it stores rows in a map and fails
// the next N update calls on demand.
type fakeBackend struct {
	rows        map[int][]int64
	failUpserts int
	upserts     int
}

func newFakeBackend() *fakeBackend { return &fakeBackend{rows: make(map[int][]int64)} }

func (f *fakeBackend) Upsert(id int, vals []int64) error {
	f.upserts++
	if f.failUpserts > 0 {
		f.failUpserts--
		return fmt.Errorf("fake: upsert refused")
	}
	v := make([]int64, len(vals))
	copy(v, vals)
	f.rows[id] = v
	return nil
}

func (f *fakeBackend) Decide() (int, bool) {
	for id := range f.rows {
		return id, true
	}
	return 0, false
}

func TestControlUpdaterPassThroughWhenHealthy(t *testing.T) {
	sched := sim.New(1)
	fb := newFakeBackend()
	u := NewControlUpdater(sched, fb)
	if err := u.Upsert(3, []int64{1, 2, 3}); err != nil {
		t.Fatalf("Upsert: %v", err)
	}
	if got := fb.rows[3]; !reflect.DeepEqual(got, []int64{1, 2, 3}) {
		t.Fatalf("row not applied synchronously: %v", got)
	}
	if u.Applied() != 1 || u.Retries() != 0 || u.Dropped() != 0 {
		t.Fatalf("healthy counters: applied=%d retries=%d dropped=%d", u.Applied(), u.Retries(), u.Dropped())
	}
	if sched.Pending() != 0 {
		t.Fatal("healthy updater left pending work on the scheduler")
	}
}

func TestControlUpdaterRetriesWithBackoff(t *testing.T) {
	sched := sim.New(1)
	fb := newFakeBackend()
	fb.failUpserts = 3 // sync try + first two retries fail; third retry lands
	u := NewControlUpdater(sched, fb)
	vals := []int64{9, 9, 9}
	if err := u.Upsert(1, vals); err != nil {
		t.Fatalf("Upsert: %v", err)
	}
	vals[0] = 77 // caller reuses its slice; the retry must have copied
	sched.Run()
	if got := fb.rows[1]; !reflect.DeepEqual(got, []int64{9, 9, 9}) {
		t.Fatalf("retried row = %v, want the values from Upsert time", got)
	}
	if u.Applied() != 1 || u.Retries() != 3 || u.Dropped() != 0 {
		t.Fatalf("counters: applied=%d retries=%d dropped=%d", u.Applied(), u.Retries(), u.Dropped())
	}
	// Backoff schedule: retries at base, 2×base, 4×base → last lands at 7×base.
	if want := 7 * DefaultCtrlBaseBackoff; sched.Now() != want {
		t.Fatalf("last retry at %v, want %v", sched.Now(), want)
	}
}

func TestControlUpdaterDropsAfterMaxAttempts(t *testing.T) {
	sched := sim.New(1)
	fb := newFakeBackend()
	fb.failUpserts = 1 << 30 // never succeeds
	u := NewControlUpdater(sched, fb)
	var droppedOp string
	var droppedID int
	u.OnDrop = func(op string, id int, err error) {
		droppedOp, droppedID = op, id
		if err == nil {
			t.Error("OnDrop called without the final error")
		}
	}
	if err := u.Upsert(5, []int64{1}); err != nil {
		t.Fatalf("Upsert: %v", err)
	}
	sched.Run()
	if u.Dropped() != 1 || droppedOp != "upsert" || droppedID != 5 {
		t.Fatalf("dropped=%d op=%q id=%d", u.Dropped(), droppedOp, droppedID)
	}
	// MaxAttempts includes the synchronous try.
	if fb.upserts != DefaultCtrlMaxAttempts {
		t.Fatalf("backend saw %d attempts, want %d", fb.upserts, DefaultCtrlMaxAttempts)
	}
}

func TestControlUpdaterStaleRetrySuperseded(t *testing.T) {
	sched := sim.New(1)
	fb := newFakeBackend()
	fb.failUpserts = 1
	u := NewControlUpdater(sched, fb)
	if err := u.Upsert(1, []int64{1}); err != nil { // refused; retry pending
		t.Fatalf("Upsert: %v", err)
	}
	if err := u.Upsert(1, []int64{2}); err != nil { // newer update lands now
		t.Fatalf("Upsert: %v", err)
	}
	sched.Run()
	if got := fb.rows[1]; !reflect.DeepEqual(got, []int64{2}) {
		t.Fatalf("stale retry clobbered newer value: %v", got)
	}
	if u.Stale() != 1 {
		t.Fatalf("stale = %d, want 1", u.Stale())
	}
}

// flakyBackend deterministically refuses every Nth table update and the
// first few decisions — the degraded-backend shape the cluster run must
// absorb without panicking.
type flakyBackend struct {
	inner       Backend
	upserts     int
	decides     int
	failEvery   int // refuse every Nth upsert
	failDecides int // refuse the first N decisions
}

func (f *flakyBackend) Upsert(id int, vals []int64) error {
	f.upserts++
	if f.failEvery > 0 && f.upserts%f.failEvery == 0 {
		return fmt.Errorf("flaky: upsert %d refused", f.upserts)
	}
	return f.inner.Upsert(id, vals)
}

func (f *flakyBackend) Decide() (int, bool) {
	f.decides++
	if f.decides <= f.failDecides {
		return 0, false
	}
	return f.inner.Decide()
}

// TestClusterRunSurvivesFlakyControlPlane is the cluster-level hardening
// test: with a backend that refuses a fraction of table updates and the
// first placements, the run completes every query — retried updates and
// deferred placements, never a panic — and the degradation is visible in
// the result counters. Run twice, the degraded run is also deterministic.
func TestClusterRunSurvivesFlakyControlPlane(t *testing.T) {
	cfg := DefaultClusterConfig(5)
	cfg.WrapBackend = func(b Backend) Backend {
		return &flakyBackend{inner: b, failEvery: 7, failDecides: 3}
	}
	const queries = 150
	run := func() *Result {
		res, err := Run(cfg, PolicyResourceAware, queries)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res
	}
	res := run()
	if len(res.Queries) != queries {
		t.Fatalf("completed %d of %d queries", len(res.Queries), queries)
	}
	if res.CtrlRetries == 0 {
		t.Error("no control-updater retries despite a flaky backend")
	}
	if res.PlacementRetries == 0 {
		t.Error("no placement retries despite refused decisions")
	}
	served := 0
	for _, q := range res.Queries {
		if q.Server >= 0 {
			served++
		} else if q.Server != -2 {
			t.Fatalf("query %d has unexpected server %d", q.ID, q.Server)
		}
	}
	if served == 0 {
		t.Fatal("no queries served at all")
	}

	res2 := run()
	a, b := res.ResponseTimesUs(cfg.NetRTTUs), res2.ResponseTimesUs(cfg.NetRTTUs)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("degraded run is not deterministic across repeats")
	}
	if res.CtrlRetries != res2.CtrlRetries || res.PlacementFailures != res2.PlacementFailures {
		t.Fatal("degraded-run counters differ across repeats")
	}
}

// TestClusterRunHealthyCountersZero pins the fault-free path: a healthy
// run reports zero control-plane degradation, so the hardening layer adds
// nothing to the Figure 16/19 numbers.
func TestClusterRunHealthyCountersZero(t *testing.T) {
	res, err := Run(DefaultClusterConfig(2), PolicyResourceAware, 100)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.ProbeErrors != 0 || res.PlacementRetries != 0 || res.PlacementFailures != 0 ||
		res.ReleaseErrors != 0 || res.CtrlRetries != 0 || res.CtrlDropped != 0 || res.CtrlStale != 0 {
		t.Fatalf("healthy run reported degradation: %+v", res)
	}
	if res.CtrlApplied == 0 {
		t.Fatal("no control updates applied; probes are not flowing through the updater")
	}
}
