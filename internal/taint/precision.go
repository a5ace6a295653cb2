package taint

// precision.go hosts the two precision passes the engine runs on top of
// plain propagation: consuming internal/alias points-to facts so tainted
// stores through unresolved pointers connect to later loads, and the
// internal/pathcheck post-pass that refutes alerts whose sink-reaching
// branch constraints are contradictory. Both are on by default and
// individually disabled by Options.NoAlias / Options.NoPathcheck.

import (
	"sort"
	"sync"

	"fits/internal/alias"
	"fits/internal/cfg"
	"fits/internal/pathcheck"
	"fits/internal/stagetime"
)

// PrecisionCache memoizes the pure per-function inputs of the precision
// post-passes across engines over one binary: points-to facts and per-site
// path-feasibility verdicts depend only on the binary's bytes, so callers
// that scan the same target repeatedly (corpus fixpoint rounds, warm-cache
// rescans) share one cache via Options.Precision instead of recomputing per
// engine. The zero value is ready to use and safe for concurrent engines; a
// nil *PrecisionCache keeps nothing.
type PrecisionCache struct {
	mu    sync.Mutex
	facts map[uint32]*alias.Facts // function entry -> points-to facts
	path  map[pathKey]pathcheck.Result
}

type pathKey struct{ entry, site uint32 }

// memo returns table(c)[k], computing and storing it on a miss. A nil c
// computes every call.
func memo[K comparable, V any](c *PrecisionCache, table func(*PrecisionCache) *map[K]V, k K, compute func() V) V {
	if c == nil {
		return compute()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	m := table(c)
	if v, ok := (*m)[k]; ok {
		return v
	}
	v := compute()
	if *m == nil {
		*m = map[K]V{}
	}
	(*m)[k] = v
	return v
}

// aliasFactsFor returns the memoized points-to facts of fn, or nil when
// the pass is disabled. Actual computation is charged to the alias span.
func (e *Engine) aliasFactsFor(fn *cfg.Function) *alias.Facts {
	if e.opts.NoAlias {
		return nil
	}
	if f, ok := e.aliasFacts[fn.Entry]; ok {
		return f
	}
	f := memo(e.opts.Precision,
		func(c *PrecisionCache) *map[uint32]*alias.Facts { return &c.facts },
		fn.Entry, func() *alias.Facts {
			defer stagetime.Open(e.opts.Probe, stagetime.Alias)()
			return alias.Analyze(e.bin, fn)
		})
	e.aliasFacts[fn.Entry] = f
	return f
}

// pathCheckAt returns the path-feasibility verdict for the alert site in fn.
func (e *Engine) pathCheckAt(fn *cfg.Function, site uint32) pathcheck.Result {
	return memo(e.opts.Precision,
		func(c *PrecisionCache) *map[pathKey]pathcheck.Result { return &c.path },
		pathKey{entry: fn.Entry, site: site}, func() pathcheck.Result {
			return pathcheck.Check(e.bin, fn, site)
		})
}

// aliasStoreTainted records that the store at instr in fn put a tainted
// value through an unresolved pointer: every abstract location the store
// may write becomes tainted.
func (e *Engine) aliasStoreTainted(fn *cfg.Function, instr uint32) {
	f := e.aliasFactsFor(fn)
	if f == nil {
		return
	}
	for _, l := range f.Stores[instr] {
		e.aliasTainted[l] = true
	}
}

// aliasLoadTainted reports whether the load at instr in fn may read an
// abstract location a tainted store resolved to. The empty-set fast path
// keeps binaries without unresolved tainted stores — the common case —
// from paying for fact computation at all.
func (e *Engine) aliasLoadTainted(fn *cfg.Function, instr uint32) bool {
	if len(e.aliasTainted) == 0 || e.opts.NoAlias {
		return false
	}
	f := e.aliasFactsFor(fn)
	if f == nil {
		return false
	}
	hit := false
	for _, l := range f.Loads[instr] {
		for t := range e.aliasTainted {
			if l.Overlaps(t) {
				hit = true
			}
		}
	}
	return hit
}

// finishAlerts applies the post-passes to every collected alert: path
// feasibility (refute alerts whose branch constraints are contradictory)
// and degradation tagging (mark alerts in functions where a taint fixpoint
// ran out of passes or the alias fact budget tripped, so API consumers can
// see where precision fell back).
func (e *Engine) finishAlerts() {
	if len(e.alerts) == 0 {
		return
	}
	sites := make([]uint32, 0, len(e.alerts))
	for s := range e.alerts {
		sites = append(sites, s)
	}
	sort.Slice(sites, func(i, j int) bool { return sites[i] < sites[j] })

	stop := stagetime.Open(e.opts.Probe, stagetime.PathCheck)
	if !e.opts.NoPathcheck {
		for _, site := range sites {
			a := e.alerts[site]
			if a.Filtered {
				continue
			}
			fn, ok := e.model.FuncAt(a.Func)
			if !ok {
				continue
			}
			if r := e.pathCheckAt(fn, a.Site); r.Infeasible {
				a.Refuted = r.Refuted
			}
		}
	}
	stop()

	degraded := map[uint32]bool{}
	for _, site := range sites {
		a := e.alerts[site]
		fn, ok := e.model.FuncAt(a.Func)
		if !ok {
			continue
		}
		d, seen := degraded[a.Func]
		if !seen {
			d = e.unconverged[a.Func]
			if !d {
				if f := e.aliasFactsFor(fn); f != nil && f.Truncated {
					d = true
				}
			}
			degraded[a.Func] = d
		}
		a.Degraded = d
	}
}

// DegradedCount reports how many collected alerts carry the Degraded mark,
// for budget-exhaustion metrics.
func (e *Engine) DegradedCount() int {
	n := 0
	for _, a := range e.alerts {
		if a.Degraded {
			n++
		}
	}
	return n
}
