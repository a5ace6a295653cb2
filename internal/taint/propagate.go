package taint

import (
	"fits/internal/cfg"
	"fits/internal/dataflow"
	"fits/internal/ir"
	"fits/internal/isa"
	"fits/internal/know"
)

// tloc is a storage location: register, stack slot (entry-SP relative) or
// global word.
type tloc struct {
	isReg  bool
	reg    isa.Reg
	isGlob bool
	addr   int32 // slot offset or global address
}

func treg(r isa.Reg) tloc  { return tloc{isReg: true, reg: r} }
func tslot(off int32) tloc { return tloc{addr: off} }
func tglob(a uint32) tloc  { return tloc{isGlob: true, addr: int32(a)} }

// tval is the abstract value: optional shape plus a taint bit.
type tval struct {
	kind  dfKind
	c     int32
	taint bool
}

type dfKind uint8

const (
	kTop dfKind = iota
	kConst
	kSPRel
)

type tstate map[tloc]tval

// Clone and Join make *tstate a dataflow.Lattice.
func (s tstate) Clone() tstate {
	ns := make(tstate, len(s))
	for k, v := range s {
		ns[k] = v
	}
	return ns
}

func (s tstate) Join(o *tstate) bool {
	changed := false
	for k, v := range *o {
		cur, ok := s[k]
		if !ok {
			s[k] = v
			changed = true
			continue
		}
		nv := cur
		if cur.kind != v.kind || cur.c != v.c {
			nv.kind, nv.c = kTop, 0
		}
		nv.taint = cur.taint || v.taint
		if nv != cur {
			s[k] = nv
			changed = true
		}
	}
	return changed
}

// seed describes how taint enters a function activation.
type seed struct {
	// retSiteAddr: the call at this address returns tainted data (0 when
	// unused).
	retSiteAddr uint32
	// paramMask taints parameters at entry (bit i = r_i).
	paramMask uint8
}

// memoKey deduplicates recursive propagation. The channel endpoint (via)
// participates so flows seeded by different cross-binary channels through
// the same callee stay distinguishable.
type memoKey struct {
	entry uint32
	s     seed
	from  SourceKind
	via   string
}

// intra runs the taint dataflow over one function and acts on the findings.
type intra struct {
	e     *Engine
	fn    *cfg.Function
	sd    seed
	from  SourceKind
	key   string
	via   string // cross-binary channel endpoint ("" intra-binary)
	depth int

	idom       map[uint32]uint32
	sanitizing map[uint32]bool // blocks with dominating range checks
	callsAt    map[uint32][]cfg.CallSite
}

// propagateValue seeds taint at the return of the call at seedAddr in fn.
func (e *Engine) propagateValue(fn *cfg.Function, seedAddr uint32, from SourceKind, key string, depth int) {
	e.propagate(fn, seed{retSiteAddr: seedAddr}, from, key, "", depth)
}

// propagateChannel seeds taint at the return of the channel getter call at
// seedAddr; via records the cross-binary endpoint for provenance.
func (e *Engine) propagateChannel(fn *cfg.Function, seedAddr uint32, key, via string) {
	e.propagate(fn, seed{retSiteAddr: seedAddr}, FromChannel, key, via, 0)
}

// propagateParams seeds taint on fn's parameters.
func (e *Engine) propagateParams(fn *cfg.Function, mask uint8, from SourceKind, key, via string, depth int) {
	e.propagate(fn, seed{paramMask: mask}, from, key, via, depth)
}

// propagateGlobals analyzes fn with no local seed; taint enters only through
// loads of tainted global words.
func (e *Engine) propagateGlobals(fn *cfg.Function) {
	e.propagate(fn, seed{}, FromITS, "", "", 0)
}

func (e *Engine) propagate(fn *cfg.Function, sd seed, from SourceKind, key, via string, depth int) {
	if depth > e.opts.MaxDepth {
		return
	}
	if e.memo == nil {
		e.memo = map[memoKey]bool{}
	}
	mk := memoKey{entry: fn.Entry, s: sd, from: from, via: via}
	if e.memo[mk] {
		return
	}
	e.memo[mk] = true

	in := &intra{e: e, fn: fn, sd: sd, from: from, key: key, via: via, depth: depth}
	in.callsAt = map[uint32][]cfg.CallSite{}
	for _, cs := range fn.Calls {
		in.callsAt[cs.Addr] = append(in.callsAt[cs.Addr], cs)
	}
	in.run()
}

func (in *intra) run() {
	fn := in.fn
	entry := tstate{}
	entry[treg(isa.SP)] = tval{kind: kSPRel}
	for i := 0; i < 4; i++ {
		if in.sd.paramMask&(1<<i) != 0 {
			entry[treg(isa.Reg(i))] = tval{kind: kTop, taint: true}
		}
	}

	sol := dataflow.Forward(fn, entry, in.flow)
	if !sol.Converged {
		in.e.unconverged[fn.Entry] = true
	}

	// Pass 2a: find sanitizing blocks (dominating range checks on taint).
	in.idom = cfg.Dominators(fn)
	in.sanitizing = map[uint32]bool{}
	for _, ba := range fn.Order {
		if st := sol.In(ba); st != nil {
			obs := &observer{}
			in.transfer(fn.Blocks[ba], st.Clone(), obs)
			if obs.rangeCheck {
				in.sanitizing[ba] = true
			}
		}
	}
	// Pass 2b: alerts and interprocedural continuation.
	for _, ba := range fn.Order {
		if st := sol.In(ba); st != nil {
			in.transfer(fn.Blocks[ba], st.Clone(), &observer{act: in})
		}
	}
}

// sanitizedAt reports whether any sanitizing block strictly dominates blk.
func (in *intra) sanitizedAt(blk uint32) bool {
	for s := range in.sanitizing {
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
func (in *intra) flow(blk *cfg.BasicBlock, st *tstate) {
	in.transfer(blk, *st, nil)
}

// transfer interprets one block, updating st in place. obs selects
// recording behaviour; nil means plain dataflow.
func (in *intra) transfer(blk *cfg.BasicBlock, st tstate, obs *observer) {
	temps := map[ir.Temp]tval{}
	texpr := map[ir.Temp]ir.Expr{}
	var curInstr uint32 // instruction whose statements are being evaluated
	get := func(l tloc) tval {
		if v, ok := st[l]; ok {
			return v
		}
		return tval{}
	}
	var eval func(e ir.Expr) tval
	eval = func(e ir.Expr) tval {
		switch e := e.(type) {
		case *ir.Const:
			return tval{kind: kConst, c: int32(e.V)}
		case *ir.RdTmp:
			return temps[e.T]
		case *ir.Get:
			return get(treg(e.R))
		case *ir.Binop:
			l, r := eval(e.L), eval(e.R)
			t := l.taint || r.taint
			switch {
			case l.kind == kConst && r.kind == kConst:
				return tval{kind: kConst, c: int32(e.Op.Fold(uint32(l.c), uint32(r.c))), taint: t}
			case e.Op == ir.Add && l.kind == kSPRel && r.kind == kConst:
				return tval{kind: kSPRel, c: l.c + r.c, taint: t}
			case e.Op == ir.Add && l.kind == kConst && r.kind == kSPRel:
				return tval{kind: kSPRel, c: r.c + l.c, taint: t}
			case e.Op == ir.Sub && l.kind == kSPRel && r.kind == kConst:
				return tval{kind: kSPRel, c: l.c - r.c, taint: t}
			}
			return tval{kind: kTop, taint: t}
		case *ir.Load:
			a := eval(e.Addr)
			switch a.kind {
			case kSPRel:
				v := get(tslot(a.c))
				v.taint = v.taint || a.taint
				return v
			case kConst:
				v := get(tglob(uint32(a.c)))
				taint := v.taint || a.taint || in.e.taintedGlobals[uint32(a.c)]
				return tval{kind: kTop, taint: taint}
			}
			// Unresolved address: the points-to pass may know which
			// abstract location this load reads.
			t := a.taint
			if !t && in.e.aliasLoadTainted(in.fn, curInstr) {
				t = true
			}
			return tval{kind: kTop, taint: t}
		}
		return tval{}
	}

	for _, irb := range blk.IR {
		curInstr = irb.Addr
		for _, s := range irb.Stmts {
			switch s := s.(type) {
			case *ir.WrTmp:
				temps[s.T] = eval(s.E)
				texpr[s.T] = s.E
			case *ir.Put:
				st[treg(s.R)] = eval(s.E)
			case *ir.Store:
				a := eval(s.Addr)
				v := eval(s.Val)
				switch a.kind {
				case kSPRel:
					st[tslot(a.c)] = v
				case kConst:
					st[tglob(uint32(a.c))] = v
					if v.taint {
						in.e.taintedGlobals[uint32(a.c)] = true
					}
				default:
					// A tainted value stored through an unresolved pointer
					// is exactly what value tracking used to drop; hand it
					// to the points-to pass.
					if v.taint {
						in.e.aliasStoreTainted(in.fn, irb.Addr)
					}
				}
			case *ir.Exit:
				if obs != nil && in.isRangeCheck(s.Cond, temps, texpr) {
					obs.rangeCheck = true
				}
			case *ir.Call:
				if obs != nil && obs.act != nil {
					in.atCall(irb.Addr, blk.Start, st, get)
				}
				// Transfer: argument taint flows into the return value.
				var argTaint bool
				for r := isa.Reg(0); r < 4; r++ {
					if get(treg(r)).taint {
						argTaint = true
					}
				}
				for r := isa.Reg(0); r < 4; r++ {
					st[treg(r)] = tval{}
				}
				st[treg(isa.R0)] = tval{kind: kTop, taint: argTaint}
				// The seed call's return is tainted by definition.
				if in.sd.retSiteAddr == irb.Addr {
					st[treg(isa.R0)] = tval{kind: kTop, taint: true}
				}
				st[treg(isa.LR)] = tval{}
			case *ir.Sys:
				st[treg(isa.R0)] = tval{}
			}
		}
	}
}

// isRangeCheck recognizes a branch comparing a tainted value against a
// nonzero constant bound with an ordering comparison.
func (in *intra) isRangeCheck(cond ir.Expr, temps map[ir.Temp]tval, texpr map[ir.Temp]ir.Expr) bool {
	rt, ok := cond.(*ir.RdTmp)
	if !ok {
		return false
	}
	bin, ok := texpr[rt.T].(*ir.Binop)
	if !ok {
		return false
	}
	if bin.Op != ir.CmpLT && bin.Op != ir.CmpGE {
		return false
	}
	evalSide := func(e ir.Expr) tval {
		if t, ok := e.(*ir.RdTmp); ok {
			return temps[t.T]
		}
		if c, ok := e.(*ir.Const); ok {
			return tval{kind: kConst, c: int32(c.V)}
		}
		return tval{}
	}
	l, r := evalSide(bin.L), evalSide(bin.R)
	lc := l.kind == kConst && l.c != 0
	rc := r.kind == kConst && r.c != 0
	return (l.taint && rc) || (r.taint && lc)
}

// atCall raises alerts at sink calls and recurses into custom callees.
func (in *intra) atCall(addr, blockStart uint32, st tstate, get func(tloc) tval) {
	for _, cs := range in.callsAt[addr] {
		if spec, ok := know.Sinks[cs.ImportName]; ok {
			for _, pi := range spec.DangerousParams {
				if pi < 4 && get(treg(isa.Reg(pi))).taint {
					if in.sanitizedAt(blockStart) {
						break
					}
					a := Alert{
						Binary: in.e.bin.Name, Site: addr, Func: in.fn.Entry,
						Sink: cs.ImportName, Kind: spec.Kind, From: in.from, Key: in.key,
						Via: in.via,
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
		if spec, ok := in.e.opts.ChannelSetters[cs.ImportName]; ok {
			// A tainted value published onto a cross-binary channel: record
			// the written endpoint as a channel-write pseudo-alert. Only
			// statically resolvable keys can be joined to a getter, so
			// unresolvable ones are dropped here.
			if spec.ValParam >= 0 && spec.ValParam < 4 &&
				get(treg(isa.Reg(spec.ValParam))).taint && !in.sanitizedAt(blockStart) {
				if c, ok := dataflow.BacktrackRegister(in.fn, cs.Addr, isa.Reg(spec.KeyParam)); ok {
					if wkey, ok := dataflow.ClassifyStringConstant(in.e.bin, c); ok && wkey != "" {
						in.e.report(Alert{
							Binary: in.e.bin.Name, Site: addr, Func: in.fn.Entry,
							Sink: cs.ImportName, Kind: know.SinkChannelWrite,
							From: in.from, Key: in.key,
							Via: spec.Chan.String() + ":" + wkey,
						})
					}
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
		for r := isa.Reg(0); r < 4; r++ {
			if get(treg(r)).taint {
				mask |= 1 << r
			}
		}
		if mask == 0 || in.sanitizedAt(blockStart) {
			continue
		}
		in.e.propagateParams(callee, mask, in.from, in.key, in.via, in.depth+1)
	}
}
