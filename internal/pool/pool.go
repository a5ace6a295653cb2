// Package pool provides the one fan-out primitive of the parallel analysis
// pipeline, Scheduler.ForEach: run n index-addressed work items on a bounded
// worker budget with context cancellation checked at item granularity.
//
// The scheduler is deliberately order-agnostic: callers that need
// deterministic output pre-size a result slice and have item i write only
// slot i, so the assembled result is identical at every worker count.
// Cancellation and errors stop the dispatch of further items; items already
// in flight run to completion before ForEach returns, so no goroutine
// outlives the call.
package pool

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// A Scheduler shares one bounded worker budget across every fan-out of an
// analysis, or of a whole batch: corpus-level scans hand the same Scheduler
// to each image's pipeline, so model building for image A and vector
// extraction for image B draw from one budget.
//
// ForEach on a Scheduler is caller-runs-inline: the calling goroutine always
// executes items itself and extra goroutines are added only when a budget
// slot is free. Acquisition never blocks, so arbitrarily nested ForEach
// calls (targets inside images inside a corpus) cannot deadlock — the worst
// case is the caller running its items serially. The global goroutine count
// stays at most `workers`: each top-level caller plus the borrowed slots.
type Scheduler struct {
	slots chan struct{}
}

// NewScheduler returns a scheduler bounding concurrent work across all its
// ForEach calls to `workers` goroutines (<= 0 means runtime.GOMAXPROCS(0)).
func NewScheduler(workers int) *Scheduler {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// The caller of every ForEach is itself a worker, so only workers-1
	// helper slots are ever lent out.
	return &Scheduler{slots: make(chan struct{}, workers-1)}
}

// ForEach invokes fn(i) for every index in [0, n) on the scheduler's shared
// budget. The context is checked before every item: once ctx is done, no
// further items start and ForEach returns ctx.Err(). If an fn call returns
// an error, dispatch stops and the error of the lowest failing index is
// returned, whatever the scheduling. In-flight items drain before return.
// Callers needing deterministic output write slot i from item i, so results
// are identical at every worker count and borrow pattern.
func (s *Scheduler) ForEach(ctx context.Context, n int, fn func(i int) error) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	if n <= 0 {
		return nil
	}
	var (
		next     atomic.Int64
		stop     atomic.Bool
		mu       sync.Mutex
		firstIdx = n
		firstErr error
	)
	next.Store(-1)
	run := func() {
		for {
			if stop.Load() || ctx.Err() != nil {
				return
			}
			i := int(next.Add(1))
			if i >= n {
				return
			}
			if err := fn(i); err != nil {
				mu.Lock()
				if i < firstIdx {
					firstIdx, firstErr = i, err
				}
				mu.Unlock()
				stop.Store(true)
				return
			}
		}
	}
	// Borrow helper slots without blocking; the caller below is always one
	// worker, so zero borrowed slots still makes progress.
	var wg sync.WaitGroup
	for borrowed := 0; borrowed < n-1; borrowed++ {
		select {
		case s.slots <- struct{}{}:
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer func() { <-s.slots }()
				run()
			}()
			continue
		default:
		}
		break
	}
	run()
	wg.Wait()
	mu.Lock()
	err := firstErr
	mu.Unlock()
	if err != nil {
		return err
	}
	return ctx.Err()
}
