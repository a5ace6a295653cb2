// Package stagetime accounts where an analysis's wall time and heap
// allocations go, stage by stage.
//
// The pure analysis packages (cfg, bfv, infer, taint) never read a clock —
// the nondet lint bans that — so they hold a Probe: the write-only view of
// a Timer, which can open spans but never read a clock or a total back.
// Impure callers (loader, scan, fits, fitsd) own the Timer and read it.
//
// Stages form a tree, and this package is the only place that knows it:
// Lift nests inside CFG, ReachDef inside Infer, and Alias and PathCheck
// inside Taint. Every span is opened and closed on the goroutine doing that
// stage's work, a nested stage's spans always run inside a span of its
// parent, and no span encloses a fan-out (Scheduler.ForEach). The Timer's
// accessors report self time and self allocations — a stage minus its
// children — so no caller subtracts one stage from another, every number
// is non-negative at any parallelism, and at Parallelism 1 the stages of
// one analysis partition the time spent inside spans: their sum is at most
// the analysis's wall time and falls short of it only by the glue between
// stages.
//
// Wall times sum across workers, so at higher parallelism the total can
// exceed the wall clock. Allocation counts read a process-global counter:
// exact at Parallelism 1, mixed between concurrent stages otherwise. The
// runtime also batches each P's allocation count before publishing it, so
// a span shorter than one batch reads near zero allocations even when it
// allocated (a scan's pathcheck span typically reads 0).
package stagetime

import (
	"runtime/metrics"
	"sync/atomic"
	"time"
)

// Stage identifies one pipeline stage.
type Stage uint8

// The pipeline stages, in execution order.
const (
	Decode    Stage = iota // firmware unpack + binary container decode
	Lift                   // instruction lifting & function recovery (inside CFG)
	CFG                    // the rest of model building (resolution, loops, callers)
	ReachDef               // reaching-definition dataflow (inside Infer)
	Infer                  // vector extraction, clustering, scoring
	Taint                  // taint scans (static or symbolic engine)
	Alias                  // bounded points-to facts (inside Taint)
	PathCheck              // alert path-feasibility filtering (inside Taint)
	NumStages
)

var stageNames = [NumStages]string{"decode", "lift", "cfg", "reachdef", "infer", "taint", "alias", "pathcheck"}

// children is the stage tree: the stages whose spans run inside spans of
// the indexing stage.
var children = [NumStages][]Stage{
	CFG:   {Lift},
	Infer: {ReachDef},
	Taint: {Alias, PathCheck},
}

func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "stage"
}

// Stages lists all stages in order, for iteration by exporters.
func Stages() [NumStages]Stage {
	return [NumStages]Stage{Decode, Lift, CFG, ReachDef, Infer, Taint, Alias, PathCheck}
}

// Probe is what a pure analysis package holds: it can open spans but never
// read a clock or a total back. *Timer implements it.
type Probe interface {
	// Span starts a span of stage s; calling the returned func ends it.
	Span(s Stage) func()
}

// Open starts a span of s on p. A nil p, or a nil *Timer in it, costs
// nothing and allocates nothing.
func Open(p Probe, s Stage) func() {
	if p == nil {
		return nop
	}
	return p.Span(s)
}

func nop() {}

// Timer accumulates per-stage costs. The zero value is ready to use; a nil
// *Timer is a no-op, so instrumentation can be left in place unpaid.
type Timer struct {
	wall   [NumStages]atomic.Int64 // nanoseconds, children included
	allocs [NumStages]atomic.Int64 // heap objects, children included
}

// Span measures one execution of stage s: call it at the stage start and
// the returned func at the end, on the same goroutine.
func (t *Timer) Span(s Stage) func() {
	if t == nil || s >= NumStages {
		return nop
	}
	t0, a0 := clock(), allocCount()
	return func() {
		t.allocs[s].Add(allocCount() - a0)
		t.wall[s].Add(clock() - t0)
	}
}

// WallNanos returns the self time of stage s in nanoseconds: its spans
// minus the spans of its nested stages.
func (t *Timer) WallNanos(s Stage) int64 {
	if t == nil || s >= NumStages {
		return 0
	}
	return self(&t.wall, s)
}

// Allocs returns the self heap-object count of stage s.
func (t *Timer) Allocs(s Stage) int64 {
	if t == nil || s >= NumStages {
		return 0
	}
	return self(&t.allocs, s)
}

func self(total *[NumStages]atomic.Int64, s Stage) int64 {
	n := total[s].Load()
	for _, c := range children[s] {
		n -= total[c].Load()
	}
	return n
}

// clock returns monotonic nanoseconds since an arbitrary base.
func clock() int64 { return time.Since(base).Nanoseconds() }

var base = time.Now()

// allocCount returns the process-lifetime heap-object allocation count. It
// reads a runtime metric without stopping the world, so sampling it at
// span boundaries is cheap.
func allocCount() int64 {
	// A fresh sample slice per call keeps this callable from concurrent
	// workers; one small slice per span boundary is noise next to the
	// stages themselves.
	s := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return int64(s[0].Value.Uint64())
}
