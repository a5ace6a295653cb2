package dataflow

import (
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
	a := &analyzer{fn: fn, anchors: anchors}
	return a.run()
}

type analyzer struct {
	fn      *cfg.Function
	anchors AnchorFunc
	facts   FlowFacts
	record  bool
	temps   Temps
}

func (a *analyzer) run() FlowFacts {
	var entry State
	for i := 0; i < a.fn.Params && i < 4; i++ {
		entry.Set(RegLoc(isa.Reg(i)), AVal{Kind: KTop, Taint: ParamMask(1 << i)})
	}
	entry.Set(RegLoc(isa.SP), AVal{Kind: KSPRel, C: 0})

	sol := Forward(a.fn, entry, a.transfer)
	a.facts.Truncated = !sol.Converged

	// Final recording pass over the fixed point.
	a.record = true
	for _, ba := range a.fn.Order {
		if in := sol.In(ba); in != nil {
			st := in.Clone()
			a.transfer(a.fn.Blocks[ba], &st)
		}
	}
	return a.facts
}

// inLoop reports whether block b lies in a natural loop. Only the recording
// pass asks, once per parameter-controlled branch, so a scan of the loops
// is cheaper than a lookup table built on every Analyze call.
func (a *analyzer) inLoop(b uint32) bool {
	for _, lp := range a.fn.Loops {
		if lp.Body[b] {
			return true
		}
	}
	return false
}

// eval computes one IR expression over the abstract state. A method rather
// than a closure inside transfer: transfer runs once per block visit on the
// pipeline's hottest path, and the closure pair (function object plus the
// captured recursion cell) was one heap allocation per visit each.
func (a *analyzer) eval(e ir.Expr, st *State) AVal {
	switch e := e.(type) {
	case *ir.Const:
		return AVal{Kind: KConst, C: int32(e.V)}
	case *ir.RdTmp:
		v, _ := a.temps.Get(e.T)
		return v
	case *ir.Get:
		return st.Get(RegLoc(e.R))
	case *ir.Binop:
		return Binop(e.Op, a.eval(e.L, st), a.eval(e.R, st))
	case *ir.Load:
		addr := a.eval(e.Addr, st)
		switch addr.Kind {
		case KSPRel:
			v := st.Get(SlotLoc(addr.C))
			v.Taint |= addr.Taint
			return v
		case KConst:
			v := st.Get(GlobLoc(uint32(addr.C)))
			v.Taint |= addr.Taint
			return AVal{Kind: KTop, Taint: v.Taint}
		}
		// Dereferencing a parameter-derived pointer yields
		// parameter-derived data.
		return top(addr.Taint)
	}
	return AVal{Kind: KTop}
}

// transfer interprets one basic block over an abstract state, mutating st.
func (a *analyzer) transfer(blk *cfg.BasicBlock, st *State) {
	for _, irb := range blk.IR {
		a.temps.Reset()
		for _, s := range irb.Stmts {
			switch s := s.(type) {
			case *ir.WrTmp:
				a.temps.Set(s.T, s.E, a.eval(s.E, st))
			case *ir.Put:
				st.Set(RegLoc(s.R), a.eval(s.E, st))
			case *ir.Store:
				addr := a.eval(s.Addr, st)
				val := a.eval(s.Val, st)
				switch addr.Kind {
				case KSPRel:
					st.Set(SlotLoc(addr.C), val)
				case KConst:
					st.Set(GlobLoc(uint32(addr.C)), val)
				}
			case *ir.Exit:
				if a.record {
					cond := a.eval(s.Cond, st)
					if cond.Taint.Has() {
						a.facts.ParamControlsBranch = true
						if !a.facts.ParamControlsLoop && a.inLoop(blk.Start) {
							a.facts.ParamControlsLoop = true
						}
					}
				}
			case *ir.Call:
				if a.record && a.anchors != nil {
					// Linear scan: the record pass visits each block once
					// and functions have few call sites, so an index map
					// would cost more to build than it saves.
					for _, cs := range a.fn.Calls {
						if cs.Addr != irb.Addr {
							continue
						}
						info := a.anchors(cs)
						if !info.Anchor {
							continue
						}
						for i := 0; i < info.Arity && i < 4; i++ {
							if st.Get(RegLoc(isa.Reg(i))).Taint.Has() {
								a.facts.ParamToAnchor = true
							}
						}
					}
				}
				st.Call()
			case *ir.Ret:
				if a.record && st.Get(RegLoc(isa.R0)).Taint.Has() {
					a.facts.TaintedReturn = true
				}
			case *ir.Sys:
				st.Set(RegLoc(isa.R0), AVal{Kind: KTop})
			}
		}
	}
}
