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
	"fits/internal/dataflow"
	"fits/internal/pathcheck"
	"fits/internal/stagetime"
)

// PrecisionCache memoizes the pure per-function inputs of the precision
// post-passes across engines over one binary: reaching-definition
// truncation, points-to facts, and per-site path-feasibility verdicts
// depend only on the binary's bytes, so callers that scan the same target
// repeatedly (corpus fixpoint rounds, warm-cache rescans) share one cache
// via Options.Precision instead of recomputing per engine. The zero value
// is ready to use and safe for concurrent engines.
type PrecisionCache struct {
	mu    sync.Mutex
	flow  map[uint32]bool         // function entry -> FlowFacts.Truncated
	facts map[uint32]*alias.Facts // function entry -> points-to facts
	path  map[pathKey]pathcheck.Result
}

type pathKey struct{ entry, site uint32 }

// aliasFactsFor returns the memoized points-to facts of fn, or nil when
// the pass is disabled.
func (e *Engine) aliasFactsFor(fn *cfg.Function) *alias.Facts {
	if e.opts.NoAlias {
		return nil
	}
	if f, ok := e.aliasFacts[fn.Entry]; ok {
		return f
	}
	f := e.computeAliasFacts(fn)
	e.aliasFacts[fn.Entry] = f
	return f
}

// computeAliasFacts runs (or fetches from the shared PrecisionCache) the
// points-to analysis of fn, charging actual computation to the alias span.
func (e *Engine) computeAliasFacts(fn *cfg.Function) *alias.Facts {
	c := e.opts.Precision
	if c == nil {
		stop := stagetime.Open(e.opts.Probe, stagetime.Alias)
		f := alias.Analyze(e.bin, fn)
		stop()
		return f
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if f, ok := c.facts[fn.Entry]; ok {
		return f
	}
	stop := stagetime.Open(e.opts.Probe, stagetime.Alias)
	f := alias.Analyze(e.bin, fn)
	stop()
	if c.facts == nil {
		c.facts = map[uint32]*alias.Facts{}
	}
	c.facts[fn.Entry] = f
	return f
}

// pathCheckAt runs (or fetches from the shared PrecisionCache) the
// path-feasibility verdict for the alert site in fn.
func (e *Engine) pathCheckAt(fn *cfg.Function, site uint32) pathcheck.Result {
	c := e.opts.Precision
	if c == nil {
		return pathcheck.Check(e.bin, fn, site)
	}
	k := pathKey{entry: fn.Entry, site: site}
	c.mu.Lock()
	defer c.mu.Unlock()
	if r, ok := c.path[k]; ok {
		return r
	}
	r := pathcheck.Check(e.bin, fn, site)
	if c.path == nil {
		c.path = map[pathKey]pathcheck.Result{}
	}
	c.path[k] = r
	return r
}

// flowTruncated reports whether fn's reaching-definition fixpoint runs out
// of budget, consulting the shared PrecisionCache when present.
func (e *Engine) flowTruncated(fn *cfg.Function) bool {
	c := e.opts.Precision
	if c == nil {
		return dataflow.Analyze(fn, nil).Truncated
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if d, ok := c.flow[fn.Entry]; ok {
		return d
	}
	d := dataflow.Analyze(fn, nil).Truncated
	if c.flow == nil {
		c.flow = map[uint32]bool{}
	}
	c.flow[fn.Entry] = d
	return d
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
// and degradation tagging (mark alerts in functions where the
// reaching-definition fixpoint or the alias fact budget tripped, so API
// consumers can see where precision silently fell back).
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
			d = e.flowTruncated(fn)
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
