// Package modelcache is the content-addressed memoization layer of the
// analysis pipeline. Binary modeling (unpack → lift → CFG/CG/loops) and
// per-function BFV extraction dominate the pipeline's cost, and corpus-scale
// workloads pay that cost repeatedly: every eval experiment reloads the same
// firmware images, every ablation variant re-extracts the same base vectors,
// and multi-target firmware links the same libc into every daemon. The cache
// keys all of that work by the SHA-256 of the underlying binary bytes plus an
// analysis-config version, so identical inputs are modeled exactly once per
// process — across targets, across firmware samples, and across concurrent
// workers.
//
// The cache itself is value-agnostic (entries are `any` plus a byte-cost
// estimate), which keeps it free of dependencies on the packages it serves;
// loader and infer build their keys with the helpers in keys.go. Three
// properties the rest of the pipeline relies on:
//
//   - Determinism: a cached value is the value the compute function returned,
//     shared read-only. Results are byte-identical with the cache on or off.
//   - Singleflight: concurrent GetOrCompute calls for the same key run the
//     compute function once; everyone else blocks and shares the result, so
//     parallel workers never lift the same binary twice.
//   - Bounded memory: an LRU holds at most MaxEntries entries and MaxBytes
//     estimated bytes; Stats() exposes hit/miss/eviction counters.
//
// A nil *Cache is valid and memoizes nothing: GetOrCompute runs compute on
// every call, so callers keep exactly one compute path and the cache only
// decides whether its result is kept.
package modelcache

import (
	"container/list"
	"context"
	"errors"
	"sync"
)

// Stats are the cache's observability counters. Hits include calls that
// joined an in-flight computation (the work was deduplicated even though the
// value was not yet resident).
type Stats struct {
	Hits      uint64
	Misses    uint64
	Evictions uint64
	Entries   int
	Bytes     int64
}

// HitRate returns hits / (hits + misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// DefaultMaxEntries and DefaultMaxBytes bound New(0, 0) caches: generous
// enough for a full 59-sample corpus sweep, small enough to stay well under
// typical CI memory limits.
const (
	DefaultMaxEntries = 4096
	DefaultMaxBytes   = 1 << 30 // 1 GiB of estimated model bytes
)

// entry is one resident cache value.
type entry struct {
	key  string
	val  any
	cost int64
}

// flight is one in-progress computation other callers can join.
type flight struct {
	done     chan struct{}
	val      any
	cost     int64
	err      error
	panicked bool // compute did not return; cleared once it does
}

// Cache is a concurrency-safe, content-addressed LRU with singleflight
// deduplication. Construct with New; a nil *Cache computes every call.
type Cache struct {
	mu         sync.Mutex
	maxEntries int
	maxBytes   int64
	ll         *list.List // front = most recently used; values are *entry
	items      map[string]*list.Element
	inflight   map[string]*flight
	bytes      int64
	hits       uint64
	misses     uint64
	evictions  uint64
}

// New returns a cache bounded by maxEntries entries and maxBytes estimated
// bytes; zero or negative values select the package defaults.
func New(maxEntries int, maxBytes int64) *Cache {
	if maxEntries <= 0 {
		maxEntries = DefaultMaxEntries
	}
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	return &Cache{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		ll:         list.New(),
		items:      map[string]*list.Element{},
		inflight:   map[string]*flight{},
	}
}

// GetOrCompute returns the value for key, computing it at most once across
// concurrent callers. compute returns the value, its estimated cost in bytes,
// and an error; errors are propagated to every waiter and never cached, so a
// failed computation is retried by the next caller. The exception is a
// context error (context.Canceled, context.DeadlineExceeded): that is the
// computing caller's own cancellation, not a property of the key, so a
// waiter that joined such a flight retries instead of inheriting it. The hit
// result reports whether the value was served without running compute in
// this call (either resident, or joined from another caller's in-flight
// computation). A compute that panics abandons its flight the same way: the
// flight is closed and forgotten before the panic propagates, and joined
// waiters retry. On a nil *Cache, compute runs and hit is always false.
func (c *Cache) GetOrCompute(key string, compute func() (val any, cost int64, err error)) (val any, hit bool, err error) {
	if c == nil {
		val, _, err = compute()
		return val, false, err
	}
	c.mu.Lock()
	for {
		if el, ok := c.items[key]; ok {
			c.ll.MoveToFront(el)
			c.hits++
			v := el.Value.(*entry).val
			c.mu.Unlock()
			return v, true, nil
		}
		fl, ok := c.inflight[key]
		if !ok {
			break
		}
		// Join the in-flight computation: the lift happens once.
		c.hits++
		c.mu.Unlock()
		<-fl.done
		if !fl.panicked && !errors.Is(fl.err, context.Canceled) && !errors.Is(fl.err, context.DeadlineExceeded) {
			return fl.val, true, fl.err
		}
		c.mu.Lock()
	}
	c.misses++
	fl := &flight{done: make(chan struct{}), panicked: true}
	c.inflight[key] = fl
	c.mu.Unlock()

	defer func() {
		c.mu.Lock()
		delete(c.inflight, key)
		if !fl.panicked && fl.err == nil {
			c.insert(key, fl.val, fl.cost)
		}
		c.mu.Unlock()
		close(fl.done)
	}()
	fl.val, fl.cost, fl.err = compute()
	fl.panicked = false
	return fl.val, false, fl.err
}

// insert adds a value and evicts from the LRU tail while over budget. The
// just-inserted entry is never evicted, so oversized values are held until
// the next insertion displaces them. Callers must hold c.mu.
func (c *Cache) insert(key string, val any, cost int64) {
	if cost < 0 {
		cost = 0
	}
	if el, ok := c.items[key]; ok {
		// Lost a race with another non-singleflight writer; refresh in place.
		e := el.Value.(*entry)
		c.bytes += cost - e.cost
		e.val, e.cost = val, cost
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&entry{key: key, val: val, cost: cost})
		c.bytes += cost
	}
	for (c.ll.Len() > c.maxEntries || c.bytes > c.maxBytes) && c.ll.Len() > 1 {
		back := c.ll.Back()
		if back == c.items[key] {
			break
		}
		e := back.Value.(*entry)
		c.ll.Remove(back)
		delete(c.items, e.key)
		c.bytes -= e.cost
		c.evictions++
	}
}

// Stats returns a snapshot of the cache counters; zero for a nil *Cache.
func (c *Cache) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Entries:   c.ll.Len(),
		Bytes:     c.bytes,
	}
}
