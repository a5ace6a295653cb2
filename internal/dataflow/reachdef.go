package dataflow

import (
	"sync"

	"fits/internal/cfg"
	"fits/internal/ir"
	"fits/internal/isa"
)

// FlowFacts are the intraprocedural flow features of one function: how its
// parameters influence control flow and anchor calls (Table 1, features 7-9),
// plus whether a parameter-derived value can reach the return register,
// which the ITS verification oracle uses.
type FlowFacts struct {
	ParamControlsLoop   bool
	ParamControlsBranch bool
	ParamToAnchor       bool
	TaintedReturn       bool
	// Truncated reports that the fixpoint pass budget ran out before the
	// dataflow converged; the other facts are then a sound-but-incomplete
	// snapshot.
	Truncated bool
}

// AnchorInfo describes a call target recognized as an anchor function.
type AnchorInfo struct {
	Arity  int
	Anchor bool
}

// AnchorFunc classifies a call site; the loader provides an implementation
// that matches import names against the anchor set.
type AnchorFunc func(cs cfg.CallSite) AnchorInfo

// Analyze runs the reaching-definition taint dataflow over fn and extracts
// its flow facts. anchors may be nil when anchor classification is not
// needed.
func Analyze(fn *cfg.Function, anchors AnchorFunc) FlowFacts {
	a := analyzers.Get().(*analyzer)
	*a = analyzer{anchors: anchors}
	a.Fn, a.Hooks = fn, a
	var entry State
	for i := 0; i < fn.Params && i < 4; i++ {
		entry.Set(RegLoc(isa.Reg(i)), AVal{Kind: KTop, Taint: ParamMask(1 << i)})
	}
	entry.Set(RegLoc(isa.SP), AVal{Kind: KSPRel, C: 0})

	sol := Forward(fn, entry, a.Block)
	a.facts.Truncated = !sol.Converged
	a.Replay(&sol)
	facts := a.facts
	*a = analyzer{}
	analyzers.Put(a)
	return facts
}

// analyzers recycles the analyzer Analyze runs once per function: set as
// its own Hooks, an analyzer escapes to the heap.
var analyzers = sync.Pool{New: func() any { return new(analyzer) }}

// analyzer is reachdef's side of the shared interpreter: its Replay
// collects the flow facts.
type analyzer struct {
	Interp
	anchors AnchorFunc
	facts   FlowFacts
}

// Load, Store and Called add nothing: a parameter-derived address already
// taints what a load through it reads.
func (a *analyzer) Load(_ uint32, _ AVal, t ParamMask) ParamMask { return t }
func (a *analyzer) Store(uint32, AVal, AVal)                     {}
func (a *analyzer) Called(uint32, *State)                        {}

// Exit records a parameter-controlled branch, and a loop when the branch
// lies in one. A scan of the loops, asked once per such branch, is cheaper
// than a lookup table built on every Analyze call.
func (a *analyzer) Exit(blk *cfg.BasicBlock, cond ir.Arg, st *State) {
	if !a.Arg(cond, st).Taint.Has() {
		return
	}
	a.facts.ParamControlsBranch = true
	for i := 0; i < len(a.Fn.Loops) && !a.facts.ParamControlsLoop; i++ {
		a.facts.ParamControlsLoop = a.Fn.Loops[i].Body[blk.Start]
	}
}

// Call records a parameter-derived argument of an anchor call.
func (a *analyzer) Call(_ *cfg.BasicBlock, cs *cfg.CallSite, st *State) {
	if a.anchors == nil {
		return
	}
	info := a.anchors(*cs)
	if !info.Anchor {
		return
	}
	for i := 0; i < info.Arity && i < 4; i++ {
		if st.Get(RegLoc(isa.Reg(i))).Taint.Has() {
			a.facts.ParamToAnchor = true
		}
	}
}

// Ret records a parameter-derived return value.
func (a *analyzer) Ret(st *State) {
	if st.Get(RegLoc(isa.R0)).Taint.Has() {
		a.facts.TaintedReturn = true
	}
}
