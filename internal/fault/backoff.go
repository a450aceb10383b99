// Package fault holds Backoff, the seed-driven retry schedule the server
// client redials by, so that reconnect storms replay exactly in tests.
package fault

import (
	"math/rand"
	"time"
)

// Backoff is a deterministic, seed-driven retry schedule: capped exponential
// growth with uniform jitter drawn from a local generator. It produces the
// same delay sequence for the same (base, max, seed) triple, which makes
// reconnect storms replayable in tests — the caller owns the clock; Backoff
// only ever computes durations.
//
// The jittered delay for attempt n is uniform in [base·2ⁿ/2, base·2ⁿ],
// clamped to max — "equal jitter", which keeps the mean growth exponential
// while desynchronizing clients that share a schedule shape but not a seed.
type Backoff struct {
	base    time.Duration
	max     time.Duration
	r       *rand.Rand
	attempt int
}

// NewBackoff builds a schedule starting at base and capped at max, with
// jitter drawn from seed. Non-positive base or max fall back to 1ms/1s.
func NewBackoff(base, max time.Duration, seed int64) *Backoff {
	if base <= 0 {
		base = time.Millisecond
	}
	if max < base {
		max = time.Second
		if max < base {
			max = base
		}
	}
	return &Backoff{base: base, max: max, r: rand.New(rand.NewSource(seed))}
}

// Next returns the delay before the next retry and advances the schedule.
func (b *Backoff) Next() time.Duration {
	d := b.base << uint(b.attempt)
	if d > b.max || d <= 0 { // d <= 0 guards shift overflow
		d = b.max
	}
	if b.attempt < 62 {
		b.attempt++
	}
	half := d / 2
	if half <= 0 {
		return d
	}
	return half + time.Duration(b.r.Int63n(int64(half)+1))
}

// Reset rewinds the exponential growth after a successful attempt. The
// jitter stream deliberately keeps advancing, so a connect/drop/reconnect
// cycle never replays the exact same delays twice within one schedule.
func (b *Backoff) Reset() { b.attempt = 0 }

// Attempt returns the number of delays handed out since the last Reset.
func (b *Backoff) Attempt() int { return b.attempt }
