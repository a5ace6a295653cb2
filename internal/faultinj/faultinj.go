// Package faultinj is the repo's failpoint layer: named injection points
// compiled into durability-critical code paths (diskstore writes, journal
// appends, fsyncs) that tests arm with errors, delays, or one-shot
// "crash here" outcomes. Production code carries a nil *Set, and every
// method on a nil receiver is a no-op, so the hooks cost one nil check
// when disabled.
//
// A failpoint simulates the observable result of a real fault, not the
// fault itself: "crash after write, before rename" is modeled by making
// the rename step return an error and abandoning the operation — exactly
// the on-disk state a power cut at that instant leaves behind. The
// crash-recovery tests then reopen the directory and assert the replay
// invariants.
package faultinj

import (
	"fmt"
	"sync"
	"time"
)

// Set is a collection of armed failpoints keyed by name. The zero value
// and the nil pointer are both valid and inert.
type Set struct {
	mu     sync.Mutex
	points map[string]*point // guarded by mu
	hits   map[string]int    // guarded by mu; counts every Hit, armed or not
}

// point is one armed failpoint.
type point struct {
	err   error         // returned when the point fires; nil = fire without error
	delay time.Duration // slept before returning, modeling a slow fsync/disk
	skip  int           // hits to pass through before firing
	count int           // remaining firings; negative = unlimited
}

// NewSet returns an empty, disarmed set.
func NewSet() *Set { return &Set{} } //fitslint:ignore testonly fault-injection test API; shipped code calls only Hit

func (s *Set) arm(name string, p *point) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.points == nil {
		s.points = map[string]*point{}
	}
	s.points[name] = p
}

// Fail arms name to return err on every hit until disarmed.
func (s *Set) Fail(name string, err error) { //fitslint:ignore testonly fault-injection test API; shipped code calls only Hit
	if s == nil {
		return
	}
	s.arm(name, &point{err: err, count: -1})
}

// FailOnce arms name to return err exactly once, then disarm itself.
// It models a transient fault or a single crash point.
func (s *Set) FailOnce(name string, err error) { //fitslint:ignore testonly fault-injection test API; shipped code calls only Hit
	if s == nil {
		return
	}
	s.arm(name, &point{err: err, count: 1})
}

// FailAfter arms name to pass through n hits and then return err on every
// later hit — "the k-th write is where the machine died".
func (s *Set) FailAfter(name string, n int, err error) { //fitslint:ignore testonly fault-injection test API; shipped code calls only Hit
	if s == nil {
		return
	}
	s.arm(name, &point{err: err, skip: n, count: -1})
}

// Delay arms name to sleep d on every hit and then succeed, modeling a
// slow or contended fsync without failing it.
func (s *Set) Delay(name string, d time.Duration) { //fitslint:ignore testonly fault-injection test API; shipped code calls only Hit
	if s == nil {
		return
	}
	s.arm(name, &point{delay: d, count: -1})
}

// Disarm removes the failpoint at name; unknown names are ignored.
func (s *Set) Disarm(name string) { //fitslint:ignore testonly fault-injection test API; shipped code calls only Hit
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.points, name)
}

// Reset disarms every point and clears the hit counters.
func (s *Set) Reset() { //fitslint:ignore testonly fault-injection test API; shipped code calls only Hit
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.points = nil
	s.hits = nil
}

// Hit is the call sites' entry: it records the visit and returns the
// injected error (or sleeps) when the named point is armed and due. A nil
// Set, unknown name, or still-skipping point returns nil immediately.
func (s *Set) Hit(name string) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	if s.hits == nil {
		s.hits = map[string]int{}
	}
	s.hits[name]++
	p := s.points[name]
	if p == nil {
		s.mu.Unlock()
		return nil
	}
	if p.skip > 0 {
		p.skip--
		s.mu.Unlock()
		return nil
	}
	if p.count == 0 {
		s.mu.Unlock()
		return nil
	}
	if p.count > 0 {
		p.count--
		if p.count == 0 {
			delete(s.points, name)
		}
	}
	err, delay := p.err, p.delay
	s.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	return err
}

// Hits reports how many times the named point was visited (armed or not),
// for test assertions that a code path actually crossed the failpoint.
func (s *Set) Hits(name string) int { //fitslint:ignore testonly fault-injection test API; shipped code calls only Hit
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits[name]
}

// Crash is a sentinel-style error constructor for crash-simulation points:
// the returned error marks the operation as abandoned mid-flight, which
// callers treat exactly like any injected I/O error.
func Crash(name string) error { //fitslint:ignore testonly fault-injection test API; shipped code calls only Hit
	return fmt.Errorf("faultinj: simulated crash at %s", name)
}
