package dataflow

import (
	"fits/internal/cfg"
	"fits/internal/ir"
	"fits/internal/isa"
)

// Hooks is what one analysis adds to the IR semantics of Interp. Load and
// Store run in every pass, Forward's sweeps included, so hooks with side
// effects act in the solver's visit order; Called runs after every call's
// register clobber; Exit, Call and Ret observe Replay passes only.
type Hooks interface {
	// Load returns the taint of the load at instruction at from the global
	// word addr.C (addr.Kind == KConst) or through an unresolved address,
	// given t, the taint the state and the address give it.
	Load(at uint32, addr AVal, t ParamMask) ParamMask
	// Store follows the store at instruction at of v to the global word
	// addr.C (addr.Kind == KConst) or through an unresolved address.
	Store(at uint32, addr, v AVal)
	Called(at uint32, st *State)
	// Exit sees a conditional exit of blk and its condition operand.
	Exit(blk *cfg.BasicBlock, cond ir.Arg, st *State)
	// Call sees each call site of the instruction, before the clobber.
	Call(blk *cfg.BasicBlock, cs *cfg.CallSite, st *State)
	Ret(st *State)
}

// Interp is the one abstract interpreter of the IR over State and Temps.
// Reachdef and taint share its statement rules and supply only Hooks.
// Block is Forward's transfer and Replay the recording pass over the fixed
// point; a block visit allocates nothing, as the hooks are methods behind
// one interface value, not closures built per visit.
type Interp struct {
	Fn    *cfg.Function
	Hooks Hooks
	Temps Temps // the current instruction's temporaries

	at     uint32 // the current instruction's address
	record bool   // in a Replay pass
	// replay is Replay's working state: a local handed to the hooks'
	// interface methods would escape to the heap on every visit.
	replay State
}

// Arg computes operand a over st and the current instruction's
// temporaries.
func (in *Interp) Arg(a ir.Arg, st *State) AVal {
	switch a.Kind {
	case ir.ArgConst:
		return AVal{Kind: KConst, C: a.V}
	case ir.ArgTmp:
		v, _ := in.Temps.Get(a.Temp())
		return v
	case ir.ArgReg:
		return st.Get(RegLoc(a.Reg()))
	}
	return AVal{}
}

// load reads through addr. A load from a constant or unresolved address
// reads Top, with the taint the Load hook gives it.
func (in *Interp) load(addr AVal, st *State) AVal {
	switch addr.Kind {
	case KSPRel:
		v := st.Get(SlotLoc(addr.C))
		v.Taint |= addr.Taint
		return v
	case KConst:
		t := st.Get(GlobLoc(uint32(addr.C))).Taint | addr.Taint
		return top(in.Hooks.Load(in.at, addr, t))
	}
	return top(in.Hooks.Load(in.at, addr, addr.Taint))
}

// Block interprets blk over st, in place.
func (in *Interp) Block(blk *cfg.BasicBlock, st *State) {
	for k := range blk.Instrs {
		in.at = blk.Start + uint32(k*isa.Width)
		in.Temps.Reset()
		stmts := in.Fn.InstrIR(blk, k)
		for i := range stmts {
			s := &stmts[i]
			switch s.Kind {
			case ir.Get:
				in.Temps.Set(s.T(), s, in.Arg(s.A, st))
			case ir.Bin:
				in.Temps.Set(s.T(), s, Binop(s.Op, in.Arg(s.A, st), in.Arg(s.B, st)))
			case ir.Load:
				in.Temps.Set(s.T(), s, in.load(in.Arg(s.A, st), st))
			case ir.Put:
				st.Set(RegLoc(s.R()), in.Arg(s.A, st))
			case ir.Store:
				addr := in.Arg(s.A, st)
				v := in.Arg(s.B, st)
				switch addr.Kind {
				case KSPRel:
					st.Set(SlotLoc(addr.C), v)
				case KConst:
					st.Set(GlobLoc(uint32(addr.C)), v)
					in.Hooks.Store(in.at, addr, v)
				default:
					in.Hooks.Store(in.at, addr, v)
				}
			case ir.Exit:
				if in.record {
					in.Hooks.Exit(blk, s.A, st)
				}
			case ir.Call, ir.Tramp:
				if in.record {
					// A scan: functions have few call sites, and an
					// instruction has one per resolved target.
					for i := range in.Fn.Calls {
						if cs := &in.Fn.Calls[i]; cs.Addr == in.at {
							in.Hooks.Call(blk, cs, st)
						}
					}
				}
				st.Call()
				in.Hooks.Called(in.at, st)
			case ir.Ret:
				if in.record {
					in.Hooks.Ret(st)
				}
			case ir.Sys:
				st.Set(RegLoc(isa.R0), AVal{})
			}
		}
	}
}

// Replay is a recording pass over sol, Block's fixed point on in.Fn: each
// reached block, in address order, runs once more from a copy of its input.
func (in *Interp) Replay(sol *Solution[State]) {
	in.record = true
	for _, ba := range in.Fn.Order {
		if fixed := sol.In(ba); fixed != nil {
			in.replay = fixed.Clone()
			in.Block(in.Fn.Blocks[ba], &in.replay)
		}
	}
	in.record = false
}
