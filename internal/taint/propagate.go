package taint

import (
	"fits/internal/cfg"
	"fits/internal/dataflow"
	"fits/internal/ir"
	"fits/internal/isa"
	"fits/internal/know"
	"fits/internal/xchan"
)

// tainted is the taint bit of a dataflow.AVal in this engine: any nonzero
// Taint mask is tainted, and every seed sets this one bit.
const tainted dataflow.ParamMask = 1

// seed describes how taint enters a function activation.
type seed struct {
	// retSiteAddr: the call at this address returns tainted data (0 when
	// unused).
	retSiteAddr uint32
	// paramMask taints parameters at entry (bit i = r_i).
	paramMask uint8
}

// memoKey deduplicates recursive propagation. A channel-seeded flow's key,
// its seeding endpoint, participates so flows seeded by different
// cross-binary channels through the same callee stay distinguishable.
type memoKey struct {
	entry uint32
	s     seed
	from  SourceKind
	ep    string
}

// intra runs the taint dataflow over one function and acts on the findings.
type intra struct {
	e     *Engine
	fn    *cfg.Function
	sd    seed
	from  SourceKind
	key   string
	depth int

	// sanitizing lists the blocks holding range checks on tainted data;
	// idom, the dominator tree they are tested against, is built only
	// when there is one.
	sanitizing []uint32
	idom       map[uint32]uint32

	// temps and at are the instruction transfer is evaluating: its
	// temporaries and its address (the alias pass keys loads on it).
	temps dataflow.Temps
	at    uint32
}

// propagateValue seeds taint at the return of the call at seedAddr in fn.
func (e *Engine) propagateValue(fn *cfg.Function, seedAddr uint32, from SourceKind, key string, depth int) {
	e.propagate(fn, seed{retSiteAddr: seedAddr}, from, key, depth)
}

// propagateParams seeds taint on fn's parameters.
func (e *Engine) propagateParams(fn *cfg.Function, mask uint8, from SourceKind, key string, depth int) {
	e.propagate(fn, seed{paramMask: mask}, from, key, depth)
}

// propagateGlobals analyzes fn with no local seed; taint enters only through
// loads of tainted global words.
func (e *Engine) propagateGlobals(fn *cfg.Function) {
	e.propagate(fn, seed{}, FromITS, "", 0)
}

func (e *Engine) propagate(fn *cfg.Function, sd seed, from SourceKind, key string, depth int) {
	if depth > e.maxDepth {
		return
	}
	if e.memo == nil {
		e.memo = map[memoKey]bool{}
	}
	mk := memoKey{entry: fn.Entry, s: sd, from: from}
	if from == FromChannel {
		mk.ep = key
	}
	if e.memo[mk] {
		return
	}
	e.memo[mk] = true

	in := &intra{e: e, fn: fn, sd: sd, from: from, key: key, depth: depth}
	in.run()
}

func (in *intra) run() {
	fn := in.fn
	var entry dataflow.State
	entry.Set(dataflow.RegLoc(isa.SP), dataflow.AVal{Kind: dataflow.KSPRel})
	for i := 0; i < 4; i++ {
		if in.sd.paramMask&(1<<i) != 0 {
			entry.Set(dataflow.RegLoc(isa.Reg(i)), dataflow.AVal{Taint: tainted})
		}
	}

	sol := dataflow.Forward(fn, entry, in.flow)
	if !sol.Converged {
		in.e.unconverged[fn.Entry] = true
	}

	// Pass 2a: find sanitizing blocks (dominating range checks on taint).
	for _, ba := range fn.Order {
		if fixed := sol.In(ba); fixed != nil {
			obs := observer{}
			st := fixed.Clone()
			in.transfer(fn.Blocks[ba], &st, &obs)
			if obs.rangeCheck {
				in.sanitizing = append(in.sanitizing, ba)
			}
		}
	}
	if len(in.sanitizing) > 0 {
		in.idom = cfg.Dominators(fn)
	}
	// Pass 2b: alerts and interprocedural continuation.
	for _, ba := range fn.Order {
		if fixed := sol.In(ba); fixed != nil {
			st := fixed.Clone()
			in.transfer(fn.Blocks[ba], &st, &observer{act: in})
		}
	}
}

// sanitizedAt reports whether any sanitizing block strictly dominates blk.
func (in *intra) sanitizedAt(blk uint32) bool {
	for _, s := range in.sanitizing {
		if s != blk && cfg.Dominates(in.idom, s, blk) {
			return true
		}
	}
	return false
}

// observer collects facts during a recording transfer.
type observer struct {
	rangeCheck bool
	act        *intra // non-nil: raise alerts and recurse
}

// flow is the fixpoint's transfer: transfer without an observer.
func (in *intra) flow(blk *cfg.BasicBlock, st *dataflow.State) {
	in.transfer(blk, st, nil)
}

// eval computes one IR expression over st and the current instruction's
// temporaries. Loads are where taint enters beyond the seeds: a constant
// address reads a global some store marked tainted, and an unresolved one
// may read a location the points-to pass saw a tainted store reach.
func (in *intra) eval(e ir.Expr, st *dataflow.State) dataflow.AVal {
	switch e := e.(type) {
	case *ir.Const:
		return dataflow.AVal{Kind: dataflow.KConst, C: int32(e.V)}
	case *ir.RdTmp:
		v, _ := in.temps.Get(e.T)
		return v
	case *ir.Get:
		return st.Get(dataflow.RegLoc(e.R))
	case *ir.Binop:
		return dataflow.Binop(e.Op, in.eval(e.L, st), in.eval(e.R, st))
	case *ir.Load:
		a := in.eval(e.Addr, st)
		switch a.Kind {
		case dataflow.KSPRel:
			v := st.Get(dataflow.SlotLoc(a.C))
			v.Taint |= a.Taint
			return v
		case dataflow.KConst:
			t := st.Get(dataflow.GlobLoc(uint32(a.C))).Taint | a.Taint
			if in.e.taintedGlobals[uint32(a.C)] {
				t = tainted
			}
			return dataflow.AVal{Taint: t}
		}
		// Unresolved address: the points-to pass may know which
		// abstract location this load reads.
		t := a.Taint
		if t == 0 && in.e.aliasLoadTainted(in.fn, in.at) {
			t = tainted
		}
		return dataflow.AVal{Taint: t}
	}
	return dataflow.AVal{}
}

// transfer interprets one block, updating st in place. obs selects
// recording behaviour; nil means plain dataflow.
func (in *intra) transfer(blk *cfg.BasicBlock, st *dataflow.State, obs *observer) {
	for _, irb := range blk.IR {
		in.at = irb.Addr
		in.temps.Reset()
		for _, s := range irb.Stmts {
			switch s := s.(type) {
			case *ir.WrTmp:
				in.temps.Set(s.T, s.E, in.eval(s.E, st))
			case *ir.Put:
				st.Set(dataflow.RegLoc(s.R), in.eval(s.E, st))
			case *ir.Store:
				a := in.eval(s.Addr, st)
				v := in.eval(s.Val, st)
				switch a.Kind {
				case dataflow.KSPRel:
					st.Set(dataflow.SlotLoc(a.C), v)
				case dataflow.KConst:
					st.Set(dataflow.GlobLoc(uint32(a.C)), v)
					if v.Taint.Has() {
						in.e.taintedGlobals[uint32(a.C)] = true
					}
				default:
					// A tainted value stored through an unresolved pointer
					// is exactly what value tracking used to drop; hand it
					// to the points-to pass.
					if v.Taint.Has() {
						in.e.aliasStoreTainted(in.fn, irb.Addr)
					}
				}
			case *ir.Exit:
				if obs != nil && in.isRangeCheck(s.Cond) {
					obs.rangeCheck = true
				}
			case *ir.Call:
				if obs != nil && obs.act != nil {
					in.atCall(irb.Addr, blk.Start, st)
				}
				st.Call()
				// The seed call's return is tainted by definition.
				if in.sd.retSiteAddr == irb.Addr {
					st.Set(dataflow.RegLoc(isa.R0), dataflow.AVal{Taint: tainted})
				}
			case *ir.Sys:
				st.Set(dataflow.RegLoc(isa.R0), dataflow.AVal{})
			}
		}
	}
}

// isRangeCheck recognizes a branch comparing a tainted value against a
// nonzero constant bound with an ordering comparison.
func (in *intra) isRangeCheck(cond ir.Expr) bool {
	rt, ok := cond.(*ir.RdTmp)
	if !ok {
		return false
	}
	_, def := in.temps.Get(rt.T)
	bin, ok := def.(*ir.Binop)
	if !ok {
		return false
	}
	if bin.Op != ir.CmpLT && bin.Op != ir.CmpGE {
		return false
	}
	l, r := in.operand(bin.L), in.operand(bin.R)
	lc := l.Kind == dataflow.KConst && l.C != 0
	rc := r.Kind == dataflow.KConst && r.C != 0
	return (l.Taint.Has() && rc) || (r.Taint.Has() && lc)
}

// operand is the value of a comparison operand: a temporary or a constant.
func (in *intra) operand(e ir.Expr) dataflow.AVal {
	switch e := e.(type) {
	case *ir.RdTmp:
		v, _ := in.temps.Get(e.T)
		return v
	case *ir.Const:
		return dataflow.AVal{Kind: dataflow.KConst, C: int32(e.V)}
	}
	return dataflow.AVal{}
}

// argTainted reports whether argument register r holds tainted data.
func argTainted(st *dataflow.State, r int) bool {
	return st.Get(dataflow.RegLoc(isa.Reg(r))).Taint.Has()
}

// atCall raises alerts at sink calls and recurses into custom callees.
func (in *intra) atCall(addr, blockStart uint32, st *dataflow.State) {
	for _, cs := range in.fn.Calls {
		if cs.Addr != addr {
			continue
		}
		if spec, ok := know.Sinks[cs.ImportName]; ok {
			for _, pi := range spec.DangerousParams {
				if pi < 4 && argTainted(st, pi) {
					if in.sanitizedAt(blockStart) {
						break
					}
					a := Alert{
						Binary: in.e.bin.Name, Site: addr, Func: in.fn.Entry,
						Sink: cs.ImportName, Kind: spec.Kind, From: in.from, Key: in.key,
					}
					if in.e.opts.StringFilter && in.from == FromITS && SystemDataKeys[in.key] {
						a.Filtered = true
					}
					in.e.report(a)
					break
				}
			}
			continue
		}
		if spec, ok := know.ChannelSetters[cs.ImportName]; ok && in.e.opts.ChannelWrites {
			// A tainted value published onto a cross-binary channel: record
			// the written endpoint as a channel-write pseudo-alert. Only
			// recoverable keys can be joined to a getter, so sites without
			// one are dropped here.
			if spec.ValParam >= 0 && spec.ValParam < 4 &&
				argTainted(st, spec.ValParam) && !in.sanitizedAt(blockStart) {
				if wkey, ok := xchan.Key(spec, in.e.opts.SelfPath, in.e.bin, in.fn, cs.Addr); ok {
					in.e.report(Alert{
						Binary: in.e.bin.Name, Site: addr, Func: in.fn.Entry,
						Sink: cs.ImportName, Kind: know.SinkChannelWrite,
						From: in.from, Key: in.key,
						Via: xchan.ID(spec.Chan, wkey),
					})
				}
			}
			continue
		}
		if cs.Target == 0 || cs.ImportName != "" {
			continue
		}
		callee, ok := in.e.model.FuncAt(cs.Target)
		if !ok || callee.ImportStub {
			continue
		}
		var mask uint8
		for r := 0; r < 4; r++ {
			if argTainted(st, r) {
				mask |= 1 << r
			}
		}
		if mask == 0 || in.sanitizedAt(blockStart) {
			continue
		}
		in.e.propagateParams(callee, mask, in.from, in.key, in.depth+1)
	}
}
