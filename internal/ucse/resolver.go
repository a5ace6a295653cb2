package ucse

import (
	"sync"

	"fits/internal/binimg"
	"fits/internal/cfg"
)

// memo explores each function once and keeps what get extracts from the
// engine, keyed by the function itself: a *cfg.Function belongs to one model
// of one binary, so binaries never share entries, and a function cfg.Build
// rebuilds (with its switch cases) is a new key and is explored again. The
// parallel loader shares one resolver across its concurrent builds, so the
// map is mutex-guarded. Exploration runs outside the lock; each function is
// built by one goroutine, so none is explored twice.
type memo[T any] struct {
	get  func(*Engine) T
	mu   sync.Mutex
	done map[*cfg.Function]T
}

func (m *memo[T]) of(bin *binimg.Binary, f *cfg.Function) T {
	m.mu.Lock()
	v, ok := m.done[f]
	m.mu.Unlock()
	if !ok {
		v = m.get(New(bin, f))
		m.mu.Lock()
		if m.done == nil {
			m.done = map[*cfg.Function]T{}
		}
		m.done[f] = v
		m.mu.Unlock()
	}
	return v
}

// JumpResolver adapts the engine to the cfg package's jump-table resolution
// hook. The returned targets over-approximate (a table scan cannot know the
// bounds check's limit); cfg.Build clips them to the function's extent.
func JumpResolver() cfg.JumpTableResolver {
	jumps := &memo[map[uint32][]uint32]{get: func(e *Engine) map[uint32][]uint32 {
		e.Explore()
		return e.JumpTargets()
	}}
	return func(bin *binimg.Binary, f *cfg.Function, addr uint32) []uint32 {
		return jumps.of(bin, f)[addr]
	}
}

// Resolver adapts the engine to the cfg package's indirect-call resolution
// hook. cfg.Build asks about every site of a function separately; one
// exploration answers them all.
func Resolver() cfg.IndirectResolver {
	explored := &memo[[]Resolution]{get: (*Engine).Explore}
	return func(bin *binimg.Binary, f *cfg.Function, site cfg.CallSite) []uint32 {
		for _, r := range explored.of(bin, f) {
			if r.Site.Addr == site.Addr {
				return r.Targets
			}
		}
		return nil
	}
}
