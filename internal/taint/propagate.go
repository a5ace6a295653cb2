package taint

import (
	"sync"

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

// intra is the taint engine's side of the shared interpreter: loads and
// stores of globals and unresolved addresses carry taint between
// activations, the seed call's return is tainted, and the recording passes
// find range checks and act at calls.
type intra struct {
	dataflow.Interp
	e     *Engine
	sd    seed
	from  SourceKind
	key   string
	depth int

	// acting selects the second recording pass, which raises alerts and
	// recurses; the first one only finds range checks.
	acting bool
	// sanitizing lists the blocks holding range checks on tainted data;
	// idom, the dominator tree they are tested against, is built only
	// when there is one.
	sanitizing []uint32
	idom       map[uint32]uint32
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

	in := intras.Get().(*intra)
	*in = intra{e: e, sd: sd, from: from, key: key, depth: depth}
	in.Fn, in.Hooks = fn, in
	in.run()
	*in = intra{}
	intras.Put(in)
}

// intras recycles the activation propagate runs once per seeded function:
// set as its own Hooks, an intra escapes to the heap.
var intras = sync.Pool{New: func() any { return new(intra) }}

func (in *intra) run() {
	fn := in.Fn
	var entry dataflow.State
	entry.Set(dataflow.RegLoc(isa.SP), dataflow.AVal{Kind: dataflow.KSPRel})
	for i := 0; i < 4; i++ {
		if in.sd.paramMask&(1<<i) != 0 {
			entry.Set(dataflow.RegLoc(isa.Reg(i)), dataflow.AVal{Taint: tainted})
		}
	}

	sol := dataflow.Forward(fn, entry, in.Block)
	if !sol.Converged {
		in.e.unconverged[fn.Entry] = true
	}

	// Pass 2a: find sanitizing blocks (dominating range checks on taint).
	in.Replay(&sol)
	if len(in.sanitizing) > 0 {
		in.idom = cfg.Dominators(fn)
	}
	// Pass 2b: alerts and interprocedural continuation.
	in.acting = true
	in.Replay(&sol)
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

// Load taints a load from a global some store marked tainted, and one
// through an unresolved address the points-to pass saw a tainted store
// reach.
func (in *intra) Load(at uint32, addr dataflow.AVal, t dataflow.ParamMask) dataflow.ParamMask {
	if addr.Kind == dataflow.KConst && in.e.taintedGlobals[uint32(addr.C)] ||
		addr.Kind != dataflow.KConst && t == 0 && in.e.aliasLoadTainted(in.Fn, at) {
		return tainted
	}
	return t
}

// Store marks a global that receives a tainted value. A tainted value
// stored through an unresolved pointer is exactly what value tracking used
// to drop; it goes to the points-to pass.
func (in *intra) Store(at uint32, addr, v dataflow.AVal) {
	if !v.Taint.Has() {
		return
	}
	if addr.Kind == dataflow.KConst {
		in.e.taintedGlobals[uint32(addr.C)] = true
	} else {
		in.e.aliasStoreTainted(in.Fn, at)
	}
}

// Called taints the seed call's return, by definition.
func (in *intra) Called(at uint32, st *dataflow.State) {
	if in.sd.retSiteAddr == at {
		st.Set(dataflow.RegLoc(isa.R0), dataflow.AVal{Taint: tainted})
	}
}

// Exit records blk as sanitizing when it range-checks tainted data.
func (in *intra) Exit(blk *cfg.BasicBlock, cond ir.Arg, st *dataflow.State) {
	if !in.acting && in.isRangeCheck(cond, st) {
		in.sanitizing = append(in.sanitizing, blk.Start)
	}
}

// Ret observes nothing.
func (in *intra) Ret(*dataflow.State) {}

// isRangeCheck recognizes a branch comparing a tainted value against a
// nonzero constant bound with an ordering comparison.
func (in *intra) isRangeCheck(cond ir.Arg, st *dataflow.State) bool {
	if cond.Kind != ir.ArgTmp {
		return false
	}
	_, def := in.Temps.Get(cond.Temp())
	if def == nil || def.Kind != ir.Bin || (def.Op != ir.CmpLT && def.Op != ir.CmpGE) {
		return false
	}
	l, r := in.Arg(def.A, st), in.Arg(def.B, st)
	lc := l.Kind == dataflow.KConst && l.C != 0
	rc := r.Kind == dataflow.KConst && r.C != 0
	return (l.Taint.Has() && rc) || (r.Taint.Has() && lc)
}

// argTainted reports whether argument register r holds tainted data.
func argTainted(st *dataflow.State, r int) bool {
	return st.Get(dataflow.RegLoc(isa.Reg(r))).Taint.Has()
}

// Call raises alerts at sink calls and recurses into custom callees, in
// the acting pass.
func (in *intra) Call(blk *cfg.BasicBlock, cs *cfg.CallSite, st *dataflow.State) {
	if !in.acting {
		return
	}
	if spec, ok := know.Sinks[cs.ImportName]; ok {
		for _, pi := range spec.DangerousParams {
			if pi < 4 && argTainted(st, pi) {
				if in.sanitizedAt(blk.Start) {
					break
				}
				a := Alert{
					Binary: in.e.bin.Name, Site: cs.Addr, Func: in.Fn.Entry,
					Sink: cs.ImportName, Kind: spec.Kind, From: in.from, Key: in.key,
				}
				if in.e.opts.StringFilter && in.from == FromITS && SystemDataKeys[in.key] {
					a.Filtered = true
				}
				in.e.report(a)
				break
			}
		}
		return
	}
	if spec, ok := know.ChannelSetters[cs.ImportName]; ok && in.e.opts.ChannelWrites {
		// A tainted value published onto a cross-binary channel: record
		// the written endpoint as a channel-write pseudo-alert. Only
		// recoverable keys can be joined to a getter, so sites without
		// one are dropped here.
		if spec.ValParam >= 0 && spec.ValParam < 4 &&
			argTainted(st, spec.ValParam) && !in.sanitizedAt(blk.Start) {
			if wkey, ok := xchan.Key(spec, in.e.opts.SelfPath, in.e.bin, in.Fn, cs.Addr); ok {
				in.e.report(Alert{
					Binary: in.e.bin.Name, Site: cs.Addr, Func: in.Fn.Entry,
					Sink: cs.ImportName, Kind: know.SinkChannelWrite,
					From: in.from, Key: in.key,
					Via: xchan.ID(spec.Chan, wkey),
				})
			}
		}
		return
	}
	if cs.Target == 0 || cs.ImportName != "" {
		return
	}
	callee, ok := in.e.model.FuncAt(cs.Target)
	if !ok || callee.ImportStub {
		return
	}
	var mask uint8
	for r := 0; r < 4; r++ {
		if argTainted(st, r) {
			mask |= 1 << r
		}
	}
	if mask == 0 || in.sanitizedAt(blk.Start) {
		return
	}
	in.e.propagateParams(callee, mask, in.from, in.key, in.depth+1)
}
