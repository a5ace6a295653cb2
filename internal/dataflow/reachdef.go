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
	inLoop  map[uint32]bool
	// temps is the per-block temporary environment, indexed by temp number
	// (temps are numbered per function by the lifter, so the slice is dense).
	// An entry is live only when its epoch matches the current one; bumping
	// the epoch at each block start clears the environment without touching
	// memory, and the slices grow geometrically instead of re-growing a map
	// per Analyze call.
	temps  []AVal
	tepoch []uint32
	epoch  uint32
}

func (a *analyzer) setTmp(t ir.Temp, v AVal) {
	if int(t) >= len(a.temps) {
		n := 2 * (int(t) + 1)
		if n < 64 {
			n = 64
		}
		temps := make([]AVal, n)
		copy(temps, a.temps)
		tepoch := make([]uint32, n)
		copy(tepoch, a.tepoch)
		a.temps, a.tepoch = temps, tepoch
	}
	a.temps[t] = v
	a.tepoch[t] = a.epoch
}

func (a *analyzer) getTmp(t ir.Temp) (AVal, bool) {
	if int(t) < len(a.temps) && a.tepoch[t] == a.epoch {
		return a.temps[t], true
	}
	return AVal{}, false
}

func (a *analyzer) run() FlowFacts {
	// Lazily built lookup tables: most functions have no loops and many have
	// no calls, so empty maps would just be allocation noise on a path that
	// runs once per function per vector extraction.
	if len(a.fn.Loops) > 0 {
		a.inLoop = make(map[uint32]bool, 8)
		for _, lp := range a.fn.Loops {
			for b := range lp.Body {
				a.inLoop[b] = true
			}
		}
	}
	var entry absState
	for i := 0; i < a.fn.Params && i < 4; i++ {
		entry.set(regLoc(isa.Reg(i)), AVal{Kind: KTop, Taint: ParamMask(1 << i)})
	}
	entry.set(regLoc(isa.SP), AVal{Kind: KSPRel, C: 0})

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

// eval computes one IR expression over the abstract state. A method rather
// than a closure inside transfer: transfer runs once per block visit on the
// pipeline's hottest path, and the closure pair (function object plus the
// captured recursion cell) was one heap allocation per visit each.
func (a *analyzer) eval(e ir.Expr, st *absState) AVal {
	switch e := e.(type) {
	case *ir.Const:
		return AVal{Kind: KConst, C: int32(e.V)}
	case *ir.RdTmp:
		if v, ok := a.getTmp(e.T); ok {
			return v
		}
		return AVal{Kind: KTop}
	case *ir.Get:
		return st.get(regLoc(e.R))
	case *ir.Binop:
		l, r := a.eval(e.L, st), a.eval(e.R, st)
		t := l.Taint | r.Taint
		switch {
		case l.Kind == KConst && r.Kind == KConst:
			return AVal{Kind: KConst, C: int32(e.Op.Fold(uint32(l.C), uint32(r.C))), Taint: t}
		case e.Op == ir.Add && l.Kind == KSPRel && r.Kind == KConst:
			return AVal{Kind: KSPRel, C: l.C + r.C, Taint: t}
		case e.Op == ir.Add && l.Kind == KConst && r.Kind == KSPRel:
			return AVal{Kind: KSPRel, C: r.C + l.C, Taint: t}
		case e.Op == ir.Sub && l.Kind == KSPRel && r.Kind == KConst:
			return AVal{Kind: KSPRel, C: l.C - r.C, Taint: t}
		}
		return top(t)
	case *ir.Load:
		addr := a.eval(e.Addr, st)
		switch addr.Kind {
		case KSPRel:
			v := st.get(slotLoc(addr.C))
			v.Taint |= addr.Taint
			return v
		case KConst:
			v := st.get(globLoc(uint32(addr.C)))
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
func (a *analyzer) transfer(blk *cfg.BasicBlock, st *absState) {
	a.epoch++
	for _, irb := range blk.IR {
		for _, s := range irb.Stmts {
			switch s := s.(type) {
			case *ir.WrTmp:
				a.setTmp(s.T, a.eval(s.E, st))
			case *ir.Put:
				st.set(regLoc(s.R), a.eval(s.E, st))
			case *ir.Store:
				addr := a.eval(s.Addr, st)
				val := a.eval(s.Val, st)
				switch addr.Kind {
				case KSPRel:
					st.set(slotLoc(addr.C), val)
				case KConst:
					st.set(globLoc(uint32(addr.C)), val)
				}
			case *ir.Exit:
				if a.record {
					cond := a.eval(s.Cond, st)
					if cond.Taint.Has() {
						a.facts.ParamControlsBranch = true
						if a.inLoop[blk.Start] {
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
							if st.get(regLoc(isa.Reg(i))).Taint.Has() {
								a.facts.ParamToAnchor = true
							}
						}
					}
				}
				// Calls clobber the argument registers; the return value
				// inherits the arguments' taint (data returned by callees
				// such as anchors derives from what was passed in).
				var t ParamMask
				for i := isa.Reg(0); i < 4; i++ {
					t |= st.get(regLoc(i)).Taint
				}
				for i := isa.Reg(0); i < 4; i++ {
					st.set(regLoc(i), AVal{Kind: KTop})
				}
				st.set(regLoc(isa.R0), top(t))
				st.set(regLoc(isa.LR), AVal{Kind: KTop})
			case *ir.Ret:
				if a.record && st.get(regLoc(isa.R0)).Taint.Has() {
					a.facts.TaintedReturn = true
				}
			case *ir.Sys:
				st.set(regLoc(isa.R0), AVal{Kind: KTop})
			}
		}
	}
}
