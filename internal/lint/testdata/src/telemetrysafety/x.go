// Package telemetrysafety seeds hot-path callers of the tel fixture
// package: one clean hot-safe call, one allowlisted entry whose body locks
// (flagged in tel.go), one non-allowlisted entry (flagged here), plus cold
// and unreachable functions that must stay silent.
package telemetrysafety

import "fixture/telemetrysafety/tel"

type Mod struct {
	c  *tel.Counter
	l  *tel.LockedCounter
	ch *tel.ChanCounter
	s  *tel.Sampler
}

//thanos:hotpath
func (m *Mod) Decide() int {
	m.c.Inc()      // clean: allowlisted and lock-free
	m.l.Inc()      // allowlisted entry; the lock inside is reported in tel.go
	m.ch.Inc()     // allowlisted entry; the channel send is reported in tel.go
	m.s.Observe(1) // want `call to telemetry function \(\*Sampler\)\.Observe is not on the hot-safe allowlist`
	m.cold()
	return int(m.helper())
}

// helper is hot by reachability, not by annotation: its calls are screened
// the same way as the root's.
func (m *Mod) helper() uint64 {
	m.s.Observe(2) // want `call to telemetry function \(\*Sampler\)\.Observe is not on the hot-safe allowlist`
	return 0
}

// DecideChecked reaches failHelper only from failure paths: a block ending
// in panic and a guard returning the caller's error. telemetrysafety follows
// every call, so the helper's non-allowlisted call is still a finding. The
// hotpathalloc fixture has the same shape and skips both calls: the two
// analyzers' edge sets differ on purpose.
//
//thanos:hotpath
func (m *Mod) DecideChecked(n int, err error) (int, error) {
	if n < 0 {
		m.failHelper(n)
		panic("negative input")
	}
	if err != nil {
		m.failHelper(n)
		return 0, err
	}
	return n, nil
}

func (m *Mod) failHelper(n int) {
	buf := make([]byte, n)
	m.s.Observe(uint64(len(buf))) // want `call to telemetry function \(\*Sampler\)\.Observe is not on the hot-safe allowlist`
}

// cold stops traversal: its telemetry calls are exempt.
//
//thanos:coldpath registration-time setup, never on the decision path
func (m *Mod) cold() {
	m.s.Observe(3)
}

// Unreachable is never called from a hot root: no diagnostics.
func (m *Mod) Unreachable() {
	m.l.Inc()
	m.s.Observe(4)
}
