// Package lockorder seeds lock-discipline violations: an a/b ordering cycle,
// direct and transitive self-deadlocks, blocking channel ops and mixed-use
// I/O under a lock — next to the idioms that must stay clean (non-blocking
// doorbell selects, branch-released guards, dedicated write locks, helper
// lock/unlock pairs, goroutine fences).
package lockorder

import (
	"bufio"
	"sync"
)

type S struct {
	a, b sync.Mutex
	mu   sync.Mutex
	wmu  sync.Mutex // dedicated write-serialization lock
	ch   chan int
	bw   *bufio.Writer
	x    int
}

func (s *S) AB() {
	s.a.Lock()
	s.b.Lock() // want `lock ordering cycle`
	s.b.Unlock()
	s.a.Unlock()
}

func (s *S) BA() {
	s.b.Lock()
	s.a.Lock() // want `lock ordering cycle`
	s.a.Unlock()
	s.b.Unlock()
}

func (s *S) Reentrant() {
	s.mu.Lock()
	s.mu.Lock() // want `self-deadlock`
	s.mu.Unlock()
	s.mu.Unlock()
}

func (s *S) ViaCallee() {
	s.mu.Lock()
	s.bump() // want `self-deadlock`
	s.mu.Unlock()
}

func (s *S) bump() {
	s.mu.Lock()
	s.x++
	s.mu.Unlock()
}

func (s *S) SendLocked() {
	s.mu.Lock()
	s.ch <- 1 // want `channel send while`
	s.mu.Unlock()
}

func (s *S) RecvLocked() {
	s.mu.Lock()
	<-s.ch // want `channel receive while`
	s.mu.Unlock()
}

func (s *S) BlockingSelect() {
	s.mu.Lock()
	select { // want `blocking select while`
	case <-s.ch:
	}
	s.mu.Unlock()
}

// Doorbell is the wake-if-idle idiom: a select with a default arm never
// blocks, so holding the lock across it is fine.
func (s *S) Doorbell() {
	s.mu.Lock()
	select {
	case s.ch <- 1:
	default:
	}
	s.mu.Unlock()
}

// Guarded releases on every path before the receive; the branch-aware walk
// must not leak the guard clause's unlock into the fallthrough.
func (s *S) Guarded(cond bool) {
	s.mu.Lock()
	if cond {
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	<-s.ch
}

// DeferHeld keeps the lock to the end via defer; no blocking op, no finding.
func (s *S) DeferHeld() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.x++
}

// WriteUnderState does I/O under mu, which other critical sections use
// without I/O — a mixed-use lock held across a socket write.
func (s *S) WriteUnderState(p []byte) {
	s.mu.Lock()
	s.bw.Write(p) // want `I/O while`
	s.mu.Unlock()
}

// WriteDedicated holds wmu, whose every critical section is I/O: that is a
// write-serialization lock doing exactly its job.
func (s *S) WriteDedicated(p []byte) {
	s.wmu.Lock()
	s.bw.Write(p)
	s.bw.Flush()
	s.wmu.Unlock()
}

// lock/unlock helpers wrap the mutex in one-line methods: the net acquisition must
// flow through the callee summary into the caller's held set.
func (s *S) lock()   { s.a.Lock() }
func (s *S) unlock() { s.a.Unlock() }

func (s *S) ViaHelper() {
	s.lock()
	<-s.ch // want `channel receive while`
	s.unlock()
}

// SpawnFenced: the spawned goroutine's channel ops are its own ordering
// domain, not ops under the spawner's lock.
func (s *S) SpawnFenced() {
	s.mu.Lock()
	go func() { <-s.ch }()
	s.mu.Unlock()
}

// WriteUnderBoth holds the dedicated wmu inside the mixed-use mu: wmu does
// not excuse the socket write, because mu is held across it too.
func (s *S) WriteUnderBoth(p []byte) {
	s.mu.Lock()
	s.wmu.Lock()
	s.bw.Write(p) // want `I/O while`
	s.wmu.Unlock()
	s.mu.Unlock()
}
