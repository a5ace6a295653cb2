// Package karonte implements a Karonte-style taint engine: symbolic,
// path-based exploration with explicit budgets. Unlike the static engine
// (package taint), it walks concrete execution paths forward from entry
// points, follows calls up to a depth bound, forks at branches and indirect
// call sites, and stops when its step budget is exhausted — reproducing the
// characteristic behaviour of symbolic-execution taint analysis on firmware:
// precise on the paths it covers, blind past its time horizon, and therefore
// strongly improved by taint sources that sit closer to the sinks. Path
// values live in a ucse.SymState, the symbolic machine the indirect-call
// resolver also explores with; the engine adds control flow and a taint
// overlay.
package karonte

import (
	"fits/internal/binimg"
	"fits/internal/cfg"
	"fits/internal/know"
	"fits/internal/taint"
)

// Options configures an analysis.
type Options struct {
	// ITS taints the listed functions' return values at their call sites,
	// on top of the interface function outputs every run taints.
	ITS []uint32
	// ITSOut lists pointer-output sources: entry -> output parameter
	// indexes whose pointees carry fetched user data.
	ITSOut map[uint32][]int
}

// limits bounds one run, mirroring the paper's observation that Karonte
// explores a bounded neighborhood of its entry points.
type limits struct {
	// totalSteps is the firmware-wide statement budget; exploration stops
	// when exhausted (the engine's "analysis time limit").
	totalSteps int
	// callDepth bounds how deep calls are followed; deeper callees are
	// skipped with havoced results, losing their flows.
	callDepth int
	// paths bounds the paths explored.
	paths int
	// loopBound bounds per-activation block revisits.
	loopBound int
	// itsSeeds bounds how many intermediate-source call sites get seeded
	// before the engine's per-flow analysis time runs out; later sites are
	// followed like ordinary calls.
	itsSeeds int
}

// Engine analyzes one binary.
type Engine struct {
	bin   *binimg.Binary
	model *cfg.Model
	opts  Options
	lim   limits

	itsSet    map[uint32]bool
	itsSeeds  int
	stepsLeft int
	nextLabel int
	alerts    map[uint32]*taint.Alert
	// cut holds the functions on paths the step budget interrupted.
	cut map[uint32]bool

	// Steps reports consumed budget after Run.
	Steps int
}

// New prepares an engine.
func New(bin *binimg.Binary, model *cfg.Model, opts Options) *Engine {
	lim := limits{totalSteps: 50000, callDepth: 7, paths: 96, loopBound: 2, itsSeeds: 2}
	// Integrating intermediate sources makes runs longer (Table 5's higher
	// Karonte-ITS times): the engine spends real extra time, which buys
	// back the budget consumed by tracking them.
	if len(opts.ITS) > 0 {
		lim.totalSteps = lim.totalSteps * 13 / 10
	}
	e := &Engine{bin: bin, model: model, opts: opts, lim: lim, alerts: map[uint32]*taint.Alert{}}
	e.itsSet = map[uint32]bool{}
	for _, a := range opts.ITS {
		e.itsSet[a] = true
	}
	return e
}

// Run explores from the program entry point, as the real engine explores
// whole programs, and returns alerts sorted by site. Intermediate sources
// change what taints along the paths, not where exploration starts.
func (e *Engine) Run() []taint.Alert {
	e.stepsLeft = e.lim.totalSteps
	e.itsSeeds = e.lim.itsSeeds
	e.cut = map[uint32]bool{}
	e.explore(e.bin.Entry)
	e.Steps = e.lim.totalSteps - e.stepsLeft
	var out []taint.Alert
	for _, a := range e.alerts {
		a.Degraded = e.cut[a.Func]
		out = append(out, *a)
	}
	taint.SortAlerts(out)
	return out
}

func (e *Engine) report(site, fnEntry uint32, sink string, kind know.SinkKind, from taint.SourceKind) {
	if _, ok := e.alerts[site]; ok {
		return
	}
	e.alerts[site] = &taint.Alert{
		Binary: e.bin.Name, Site: site, Func: fnEntry,
		Sink: sink, Kind: kind, From: from,
	}
}
