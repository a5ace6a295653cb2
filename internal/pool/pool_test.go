package pool

// Tests for the Scheduler contract: every index visited once, the lowest
// failing index's error wins and stops dispatch, cancellation before and
// during a call, no goroutine outliving a call, one bounded budget shared
// across every ForEach, and non-blocking slot acquisition (so nested calls
// cannot deadlock).

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSchedulerVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 8} {
		s := NewScheduler(workers)
		const n = 57
		var visits [n]atomic.Int32
		err := s.ForEach(context.Background(), n, func(i int) error {
			visits[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range visits {
			if got := visits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d visited %d times", workers, i, got)
			}
		}
	}
}

// TestForEachVisitsEveryIndexOnce: one scheduler reused across calls, with
// budgets both below and above the item count (100 workers leaves surplus
// slots unused), still visits every index exactly once per call.
func TestForEachVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3, 8, 100} {
		s := NewScheduler(workers)
		for _, n := range []int{1, 2, 57} {
			visits := make([]atomic.Int32, n)
			err := s.ForEach(context.Background(), n, func(i int) error {
				visits[i].Add(1)
				return nil
			})
			if err != nil {
				t.Fatalf("workers=%d n=%d: %v", workers, n, err)
			}
			for i := range visits {
				if got := visits[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, got)
				}
			}
		}
	}
}

func TestForEachZeroItems(t *testing.T) {
	s := NewScheduler(4)
	if err := s.ForEach(context.Background(), 0, func(int) error {
		t.Fatal("fn called for n=0")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if got := len(s.slots); got != 0 {
		t.Errorf("%d slots held after an empty ForEach", got)
	}
}

func TestSchedulerReturnsLowestIndexError(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	for _, workers := range []int{1, 4} {
		s := NewScheduler(workers)
		err := s.ForEach(context.Background(), 64, func(i int) error {
			switch i {
			case 3:
				return errA
			case 5:
				// With workers=4 this item may run concurrently with
				// item 3; the lower index must still win.
				return errB
			}
			return nil
		})
		if err != errA {
			t.Errorf("workers=%d: err = %v, want %v", workers, err, errA)
		}
	}
}

// TestForEachReturnsLowestIndexError: the lower index wins even when the
// higher index fails first in time — item 3 is held in flight until item 5
// has already failed and stopped dispatch.
func TestForEachReturnsLowestIndexError(t *testing.T) {
	errA := errors.New("a")
	errB := errors.New("b")
	for _, workers := range []int{2, 4} {
		failed := make(chan struct{})
		err := NewScheduler(workers).ForEach(context.Background(), 8, func(i int) error {
			switch i {
			case 3:
				select {
				case <-failed:
				case <-time.After(5 * time.Second):
				}
				return errA
			case 5:
				close(failed)
				return errB
			}
			return nil
		})
		if err != errA {
			t.Errorf("workers=%d: err = %v, want %v", workers, err, errA)
		}
	}
}

func TestForEachErrorStopsDispatch(t *testing.T) {
	boom := errors.New("boom")
	var after atomic.Int32
	err := NewScheduler(2).ForEach(context.Background(), 1000, func(i int) error {
		if i == 0 {
			return boom
		}
		if i > 100 {
			after.Add(1)
		}
		time.Sleep(time.Millisecond)
		return nil
	})
	if err != boom {
		t.Errorf("err = %v, want %v", err, boom)
	}
	// Dispatch halts quickly: the bulk of the tail must never start.
	if got := after.Load(); got > 10 {
		t.Errorf("%d items ran after the failure", got)
	}
}

func TestSchedulerPreCancelledContext(t *testing.T) {
	s := NewScheduler(4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	called := false
	if err := s.ForEach(ctx, 8, func(int) error { called = true; return nil }); err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if called {
		t.Error("fn ran under a pre-cancelled context")
	}
}

// TestForEachPreCancelledContext: a done context wins over everything, an
// empty item range included, and no helper slot is borrowed.
func TestForEachPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		for _, n := range []int{0, 10} {
			s := NewScheduler(workers)
			called := false
			err := s.ForEach(ctx, n, func(int) error {
				called = true
				return nil
			})
			if !errors.Is(err, context.Canceled) {
				t.Errorf("workers=%d n=%d: err = %v, want context.Canceled", workers, n, err)
			}
			if called {
				t.Errorf("workers=%d n=%d: fn ran under a cancelled context", workers, n)
			}
			if got := len(s.slots); got != 0 {
				t.Errorf("workers=%d n=%d: %d slots held", workers, n, got)
			}
		}
	}
}

func TestForEachCancellationMidFlight(t *testing.T) {
	for _, workers := range []int{1, 2} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int32
		err := NewScheduler(workers).ForEach(ctx, 1000, func(i int) error {
			if ran.Add(1) == 4 {
				cancel()
			}
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if got := ran.Load(); got > 100 {
			t.Errorf("workers=%d: %d items ran after cancellation", workers, got)
		}
	}
}

func TestForEachNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	s := NewScheduler(8)
	for i := 0; i < 20; i++ {
		_ = s.ForEach(context.Background(), 50, func(int) error { return nil })
	}
	// ForEach waits for its helpers, so the count settles back.
	var after int
	for i := 0; i < 50; i++ {
		after = runtime.NumGoroutine()
		if after <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutines: before=%d after=%d", before, after)
}

// TestForEachBoundsConcurrency: a single caller plus its borrowed helpers
// never run more than `workers` items at once.
func TestForEachBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int32
	err := NewScheduler(workers).ForEach(context.Background(), 100, func(int) error {
		c := cur.Add(1)
		for {
			m := peak.Load()
			if c <= m || peak.CompareAndSwap(m, c) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got > workers {
		t.Errorf("observed %d concurrent items, cap is %d", got, workers)
	}
}

// TestSchedulerNestedForEachNoDeadlock is the property the scheduler exists
// for: a corpus fan-out whose items each fan out again over the same budget
// must complete even when the budget (1 worker) admits no helpers at all —
// the caller always runs items inline.
func TestSchedulerNestedForEachNoDeadlock(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		s := NewScheduler(workers)
		var inner atomic.Int32
		err := s.ForEach(context.Background(), 8, func(i int) error {
			return s.ForEach(context.Background(), 8, func(j int) error {
				inner.Add(1)
				return nil
			})
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := inner.Load(); got != 64 {
			t.Errorf("workers=%d: inner ran %d times, want 64", workers, got)
		}
	}
}

// TestSchedulerBoundsConcurrencyAcrossCalls: two concurrent top-level
// ForEach calls plus borrowed helpers must never exceed callers + (workers-1)
// busy goroutines — the slot budget is global to the scheduler, not per call.
func TestSchedulerBoundsConcurrencyAcrossCalls(t *testing.T) {
	const workers = 4
	const callers = 2
	s := NewScheduler(workers)
	var cur, peak atomic.Int32
	var wg sync.WaitGroup
	gate := make(chan struct{})
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-gate
			_ = s.ForEach(context.Background(), 64, func(i int) error {
				v := cur.Add(1)
				for {
					p := peak.Load()
					if v <= p || peak.CompareAndSwap(p, v) {
						break
					}
				}
				for k := 0; k < 1000; k++ {
					_ = k // brief busy window so runs overlap
				}
				cur.Add(-1)
				return nil
			})
		}()
	}
	close(gate)
	wg.Wait()
	// Each caller runs inline (2) and at most workers-1 slots are lent out
	// between them (3): 5 is the hard ceiling.
	if max := int32(callers + workers - 1); peak.Load() > max {
		t.Errorf("peak concurrency %d, want <= %d", peak.Load(), max)
	}
}

// TestSchedulerSlotsReturned: after ForEach completes, all borrowed slots
// are back, so a later call can borrow the full budget again.
func TestSchedulerSlotsReturned(t *testing.T) {
	s := NewScheduler(4)
	for round := 0; round < 3; round++ {
		if err := s.ForEach(context.Background(), 32, func(int) error { return nil }); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(s.slots); got != 0 {
		t.Errorf("%d slots still held after ForEach returned", got)
	}
}
