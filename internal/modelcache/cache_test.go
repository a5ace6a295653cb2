package modelcache

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// get returns the cached value for key, if resident, and marks it recently
// used, as a hit would. It does not join in-flight computations.
func get(c *Cache, key string) (any, bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		return el.Value.(*entry).val, true
	}
	c.misses++
	return nil, false
}

func computeConst(v int, cost int64) func() (any, int64, error) {
	return func() (any, int64, error) { return v, cost, nil }
}

func TestHitMissAndStats(t *testing.T) {
	c := New(8, 1<<20)
	v, hit, err := c.GetOrCompute("a", computeConst(1, 10))
	if err != nil || hit || v.(int) != 1 {
		t.Fatalf("first get: v=%v hit=%v err=%v", v, hit, err)
	}
	v, hit, err = c.GetOrCompute("a", computeConst(2, 10))
	if err != nil || !hit || v.(int) != 1 {
		t.Fatalf("second get must hit with original value: v=%v hit=%v err=%v", v, hit, err)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Entries != 1 || s.Bytes != 10 {
		t.Errorf("stats = %+v, want 1 hit, 1 miss, 1 entry, 10 bytes", s)
	}
	if got := s.HitRate(); got != 0.5 {
		t.Errorf("hit rate = %v, want 0.5", got)
	}
}

func TestLRUEvictionByEntryCount(t *testing.T) {
	c := New(3, 1<<20)
	for i := 0; i < 3; i++ {
		c.GetOrCompute(fmt.Sprintf("k%d", i), computeConst(i, 1))
	}
	// Touch k0 so k1 is the least recently used.
	if _, ok := get(c, "k0"); !ok {
		t.Fatal("k0 missing before eviction")
	}
	c.GetOrCompute("k3", computeConst(3, 1))
	if _, ok := get(c, "k1"); ok {
		t.Error("k1 should have been evicted as LRU")
	}
	for _, k := range []string{"k0", "k2", "k3"} {
		if _, ok := get(c, k); !ok {
			t.Errorf("%s should be resident", k)
		}
	}
	if s := c.Stats(); s.Evictions != 1 || s.Entries != 3 {
		t.Errorf("stats = %+v, want 1 eviction, 3 entries", s)
	}
}

func TestLRUEvictionByBytes(t *testing.T) {
	c := New(100, 100)
	c.GetOrCompute("a", computeConst(1, 60))
	c.GetOrCompute("b", computeConst(2, 60)) // 120 bytes > 100: evicts a
	if _, ok := get(c, "a"); ok {
		t.Error("a should have been evicted to meet the byte budget")
	}
	if _, ok := get(c, "b"); !ok {
		t.Error("b should be resident")
	}
	if s := c.Stats(); s.Bytes != 60 {
		t.Errorf("bytes = %d, want 60", s.Bytes)
	}
	// An oversized entry is retained alone rather than thrashing.
	c.GetOrCompute("huge", computeConst(3, 500))
	if _, ok := get(c, "huge"); !ok {
		t.Error("oversized entry should be resident until displaced")
	}
}

func TestSingleflightUnderConcurrentLoad(t *testing.T) {
	c := New(8, 1<<20)
	var computes atomic.Int64
	var release = make(chan struct{})
	const workers = 32
	var wg sync.WaitGroup
	results := make([]int, workers)
	hits := make([]bool, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			v, hit, err := c.GetOrCompute("model", func() (any, int64, error) {
				computes.Add(1)
				<-release // hold every other caller in the join path
				return 42, 8, nil
			})
			if err != nil {
				t.Errorf("worker %d: %v", w, err)
				return
			}
			results[w] = v.(int)
			hits[w] = hit
		}(w)
	}
	close(release)
	wg.Wait()
	if n := computes.Load(); n != 1 {
		t.Errorf("compute ran %d times, want exactly 1 (singleflight)", n)
	}
	misses := 0
	for w := 0; w < workers; w++ {
		if results[w] != 42 {
			t.Errorf("worker %d got %d, want 42", w, results[w])
		}
		if !hits[w] {
			misses++
		}
	}
	if misses != 1 {
		t.Errorf("%d workers reported a miss, want exactly 1", misses)
	}
}

func TestErrorsPropagateAndAreNotCached(t *testing.T) {
	c := New(8, 1<<20)
	boom := errors.New("lift failed")
	_, _, err := c.GetOrCompute("bad", func() (any, int64, error) { return nil, 0, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want propagated compute error", err)
	}
	if c.Stats().Entries != 0 {
		t.Error("failed computation must not be cached")
	}
	v, hit, err := c.GetOrCompute("bad", computeConst(7, 1))
	if err != nil || hit || v.(int) != 7 {
		t.Errorf("retry after error: v=%v hit=%v err=%v, want fresh compute", v, hit, err)
	}
}

// TestCancelledFlightDoesNotFailWaiters: when the computing caller's own
// context ends its computation, a second caller that joined the flight must
// retry with its own compute instead of inheriting that cancellation — two
// identical service jobs must not share one job's cancel or timeout.
func TestCancelledFlightDoesNotFailWaiters(t *testing.T) {
	for _, cause := range []error{context.Canceled, context.DeadlineExceeded} {
		c := New(8, 1<<20)
		release := make(chan struct{})
		first := make(chan error, 1)
		go func() {
			_, _, err := c.GetOrCompute("ranking", func() (any, int64, error) {
				<-release
				return nil, 0, fmt.Errorf("infer: %w", cause)
			})
			first <- err
		}()
		second := make(chan error, 1)
		var secondVal any
		go func() {
			// Wait until the first caller owns the flight, then join it.
			for c.Stats().Misses == 0 {
				time.Sleep(time.Millisecond)
			}
			v, _, err := c.GetOrCompute("ranking", computeConst(7, 1))
			secondVal = v
			second <- err
		}()
		for c.Stats().Hits == 0 { // the second caller has joined
			time.Sleep(time.Millisecond)
		}
		close(release)
		if err := <-first; !errors.Is(err, cause) {
			t.Errorf("%v: computing caller got %v, want its own cancellation", cause, err)
		}
		if err := <-second; err != nil {
			t.Errorf("%v: waiter inherited the computing caller's error: %v", cause, err)
		} else if secondVal != 7 {
			t.Errorf("%v: waiter got %v, want its own computed 7", cause, secondVal)
		}
		if v, ok := get(c, "ranking"); !ok || v != 7 {
			t.Errorf("%v: retried value not cached: %v %v", cause, v, ok)
		}
	}
}

func TestKeyConfigVersionInvalidation(t *testing.T) {
	c := New(8, 1<<20)
	h := HashBytes([]byte("binary-bytes"))
	old := "model|v0|ucse=1|" + hex.EncodeToString(h[:]) // stale-epoch key
	cur := Key("model", "ucse=1", h)
	if old == cur {
		t.Fatal("stale and current keys must differ")
	}
	c.GetOrCompute(old, computeConst(1, 1))
	// A config-version bump changes every key, so the old entry is simply
	// never addressed again.
	if _, hit, _ := c.GetOrCompute(cur, computeConst(2, 1)); hit {
		t.Error("current-epoch key must miss entries written under another epoch")
	}
	v, _ := get(c, cur)
	if v.(int) != 2 {
		t.Errorf("current epoch value = %v, want 2", v)
	}
}

func TestKeySeparatesKindsConfigsAndContent(t *testing.T) {
	h1 := HashBytes([]byte("a"))
	h2 := HashBytes([]byte("b"))
	keys := []string{
		Key("model", "ucse=1", h1),
		Key("model", "ucse=0", h1),
		Key("model", "ucse=1", h2),
		Key("bfv", "ucse=1", h1),
		Key("model", "ucse=1", h1, h2),
	}
	seen := map[string]bool{}
	for _, k := range keys {
		if seen[k] {
			t.Errorf("key collision: %s", k)
		}
		seen[k] = true
	}
	if Key("model", "ucse=1", h1) != keys[0] {
		t.Error("identical inputs must produce identical keys")
	}
}

func TestConcurrentMixedWorkload(t *testing.T) {
	c := New(16, 1<<20)
	var wg sync.WaitGroup
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("k%d", (w+i)%24) // more keys than capacity: forces eviction under load
				v, _, err := c.GetOrCompute(k, computeConst((w+i)%24, 64))
				if err != nil {
					t.Errorf("GetOrCompute: %v", err)
					return
				}
				if v.(int) != (w+i)%24 {
					t.Errorf("key %s: got %v", k, v)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Stats().Entries > 16 {
		t.Errorf("entries = %d, want <= 16", c.Stats().Entries)
	}
}

// TestNilCacheComputesEveryCall: a nil *Cache is a valid cache that keeps
// nothing, so callers need no uncached fork of their compute path.
func TestNilCacheComputesEveryCall(t *testing.T) {
	var c *Cache
	calls := 0
	for i := 1; i <= 2; i++ {
		v, hit, err := c.GetOrCompute("k", func() (any, int64, error) {
			calls++
			return calls, 1, nil
		})
		if err != nil || hit || v.(int) != i {
			t.Errorf("call %d: v=%v hit=%v err=%v, want a fresh compute", i, v, hit, err)
		}
	}
	boom := errors.New("lift failed")
	if _, hit, err := c.GetOrCompute("k", func() (any, int64, error) { return nil, 0, boom }); hit || !errors.Is(err, boom) {
		t.Errorf("hit=%v err=%v, want the compute error", hit, err)
	}
	if _, ok := get(c, "k"); ok {
		t.Error("nil cache reported a resident value")
	}
	if s := c.Stats(); s != (Stats{}) || c.Stats().Entries != 0 {
		t.Errorf("stats = %+v, len = %d, want zero", s, c.Stats().Entries)
	}
}

// TestPanickingComputeReleasesFlight: a compute that panics must not leave
// its flight behind. A waiter that joined it retries with its own compute,
// and a later caller for the same key computes instead of blocking forever.
func TestPanickingComputeReleasesFlight(t *testing.T) {
	c := New(8, 1<<20)
	release := make(chan struct{})
	first := make(chan any, 1)
	go func() {
		defer func() { first <- recover() }()
		c.GetOrCompute("model", func() (any, int64, error) {
			<-release
			panic("decode: hostile input")
		})
	}()
	second := make(chan any, 1)
	go func() {
		for c.Stats().Misses == 0 { // the first caller owns the flight
			time.Sleep(time.Millisecond)
		}
		v, _, err := c.GetOrCompute("model", computeConst(7, 1))
		if err != nil {
			t.Errorf("waiter: %v", err)
		}
		second <- v
	}()
	for c.Stats().Hits == 0 { // the second caller has joined
		time.Sleep(time.Millisecond)
	}
	close(release)
	within := func(ch chan any, what string) any {
		select {
		case v := <-ch:
			return v
		case <-time.After(10 * time.Second):
			t.Fatalf("%s blocked on the panicked flight", what)
			return nil
		}
	}
	if p := within(first, "computing caller"); p == nil {
		t.Error("the panic did not reach the computing caller")
	}
	if v := within(second, "waiter"); v != 7 {
		t.Errorf("waiter got %v, want its own computed 7", v)
	}

	func() {
		defer func() { recover() }()
		c.GetOrCompute("again", func() (any, int64, error) { panic("cfg: hostile input") })
	}()
	later := make(chan any, 1)
	go func() {
		v, _, _ := c.GetOrCompute("again", computeConst(9, 1))
		later <- v
	}()
	if v := within(later, "later caller"); v != 9 {
		t.Errorf("later caller got %v, want 9", v)
	}
}
