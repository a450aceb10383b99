package lb

import (
	"repro/internal/sim"
)

// ControlUpdater hardens the control path between the probe pipeline and a
// placement backend: table updates that the backend refuses (a module whose
// table is full, or an update with the wrong number of metrics) are retried
// on the simulation clock with capped exponential backoff instead of
// surfacing as a panic in the probe loop. Decisions pass straight through.
//
// On the fault-free path the first attempt runs synchronously and succeeds,
// so wrapping a healthy backend changes nothing — same decisions, same
// schedule, zero pending work. Per-resource sequence numbers guarantee a
// delayed retry never clobbers a newer update for the same id
// (last-writer-wins, as a real switch control channel provides).
type ControlUpdater struct {
	sched   *sim.Scheduler
	backend Backend

	// MaxAttempts bounds tries per update (first attempt included); an
	// update still failing after that is dropped and counted.
	MaxAttempts int
	// BaseBackoff is the delay before the first retry; it doubles per
	// attempt, capped at MaxBackoff.
	BaseBackoff sim.Time
	MaxBackoff  sim.Time
	// OnDrop, when set, observes updates abandoned after MaxAttempts.
	OnDrop func(op string, id int, err error)

	seq     map[int]uint64 // per-resource update sequence, for staleness
	applied uint64
	retries uint64
	dropped uint64
	stale   uint64
}

// Default control-updater tuning: mirrors the engine's resync backoff
// scale — first retry after 100 µs, capped at 2 ms, five tries total.
const (
	DefaultCtrlMaxAttempts = 5
	DefaultCtrlBaseBackoff = 100 * sim.Microsecond
	DefaultCtrlMaxBackoff  = 2 * sim.Millisecond
)

// NewControlUpdater wraps backend with retrying update delivery on sched's
// clock.
func NewControlUpdater(sched *sim.Scheduler, backend Backend) *ControlUpdater {
	return &ControlUpdater{
		sched:       sched,
		backend:     backend,
		MaxAttempts: DefaultCtrlMaxAttempts,
		BaseBackoff: DefaultCtrlBaseBackoff,
		MaxBackoff:  DefaultCtrlMaxBackoff,
		seq:         make(map[int]uint64),
	}
}

// Applied returns updates the backend accepted (first try or retried).
func (u *ControlUpdater) Applied() uint64 { return u.applied }

// Retries returns retry attempts scheduled.
func (u *ControlUpdater) Retries() uint64 { return u.retries }

// Dropped returns updates abandoned after MaxAttempts.
func (u *ControlUpdater) Dropped() uint64 { return u.dropped }

// Stale returns retries abandoned because a newer update for the same
// resource superseded them.
func (u *ControlUpdater) Stale() uint64 { return u.stale }

// Decide passes through to the backend.
func (u *ControlUpdater) Decide() (int, bool) { return u.backend.Decide() }

// Upsert applies the update, retrying asynchronously on failure. It never
// returns an error: delivery failures are the updater's to absorb, visible
// through Dropped() and OnDrop rather than in the probe loop.
func (u *ControlUpdater) Upsert(id int, vals []int64) error {
	s := u.bump(id)
	if err := u.backend.Upsert(id, vals); err == nil {
		u.applied++
	} else {
		v := make([]int64, len(vals)) // caller reuses its slice; retries need a copy
		copy(v, vals)
		u.scheduleRetry(id, s, 2, u.BaseBackoff, v, err)
	}
	return nil
}

func (u *ControlUpdater) bump(id int) uint64 {
	u.seq[id]++
	return u.seq[id]
}

// scheduleRetry arms upsert attempt number `attempt` (1 was the synchronous
// try) after delay, doubling the delay for the next one up to MaxBackoff.
func (u *ControlUpdater) scheduleRetry(id int, seq uint64, attempt int, delay sim.Time, vals []int64, lastErr error) {
	if attempt > u.MaxAttempts {
		u.dropped++
		if u.OnDrop != nil {
			u.OnDrop("upsert", id, lastErr)
		}
		return
	}
	u.retries++
	u.sched.After(delay, func() {
		if u.seq[id] != seq {
			u.stale++ // a newer update owns this resource now
			return
		}
		if err := u.backend.Upsert(id, vals); err == nil {
			u.applied++
			return
		} else {
			next := delay * 2
			if next > u.MaxBackoff {
				next = u.MaxBackoff
			}
			u.scheduleRetry(id, seq, attempt+1, next, vals, err)
		}
	})
}
