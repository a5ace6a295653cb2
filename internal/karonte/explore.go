package karonte

import (
	"maps"
	"slices"

	"fits/internal/cfg"
	"fits/internal/ir"
	"fits/internal/isa"
	"fits/internal/know"
	"fits/internal/taint"
	"fits/internal/ucse"
)

const (
	sourceBufSpan  = 1024 // assumed extent of an interface function's output buffer
	maxForkTargets = 12
	// itsTrackingCost is the budget surcharge per seeded intermediate
	// source: more taint sources, more symbolic data-flow tracking.
	itsTrackingCost = 4000
)

// region is a concrete memory span tainted by an interface function.
type region struct {
	base, size uint32
	label      int
}

type visitKey struct {
	fn, block uint32
}

// frame is a return continuation, carrying the caller's loop-bound state.
type frame struct {
	fn     *cfg.Function
	block  uint32
	idx    int
	visits map[visitKey]int
}

// path is one execution path: its position and call stack, the shared
// symbolic machine state holding every value, and a taint overlay on top.
type path struct {
	fn     *cfg.Function
	block  uint32
	idx    int
	visits map[visitKey]int
	stack  []frame

	st *ucse.SymState
	// Taint labels (0 = untainted) beside each register, temporary and
	// concretely stored word. Every concrete store records its label, 0
	// included, so mem also answers whether a word was stored.
	regs    [isa.NumRegs]int
	temps   [ir.MaxBlockTemps]int
	mem     map[uint32]int
	symPtr  map[ucse.SVal]int // pointer identity -> pointee taint label
	regions []region
	killed  map[int]bool
}

// clone forks the path: the fork shares nothing mutable with p.
func (p *path) clone() *path {
	np := *p
	np.st = p.st.Clone()
	np.visits = maps.Clone(p.visits)
	np.stack = make([]frame, len(p.stack))
	for i, fr := range p.stack {
		fr.visits = maps.Clone(fr.visits)
		np.stack[i] = fr
	}
	np.mem = maps.Clone(p.mem)
	np.symPtr = maps.Clone(p.symPtr)
	np.regions = slices.Clone(p.regions)
	np.killed = maps.Clone(p.killed)
	return &np
}

func (e *Engine) freshLabel() int {
	e.nextLabel++
	return e.nextLabel
}

// setR0 gives the return register a fresh unknown carrying label.
func (p *path) setR0(label int) {
	p.st.Regs[isa.R0] = p.st.Fresh()
	p.regs[isa.R0] = label
}

// pointer is a value's pointer identity: additive arithmetic keeps pointing
// at the same symbolic object, so it strips to its first non-constant
// operand.
func pointer(v ucse.SVal) ucse.SVal {
	for {
		b, ok := v.(ucse.SBin)
		if !ok || (b.Op != ir.Add && b.Op != ir.Sub) {
			return v
		}
		if _, c := b.L.(ucse.SConst); c {
			v = b.R
		} else {
			v = b.L
		}
	}
}

// explore runs bounded DFS from one entry function.
func (e *Engine) explore(entry uint32) {
	fn, ok := e.model.FuncAt(entry)
	if !ok || fn.ImportStub {
		return
	}
	init := &path{
		fn: fn, block: fn.Entry, visits: map[visitKey]int{},
		st:  ucse.NewPathState(e.bin),
		mem: map[uint32]int{}, symPtr: map[ucse.SVal]int{}, killed: map[int]bool{},
	}

	paths := 0
	work := []*path{init}
	for len(work) > 0 && e.stepsLeft > 0 && paths < e.lim.paths {
		p := work[len(work)-1]
		work = work[:len(work)-1]
		paths++
		if e.runPath(p, &work) {
			e.markCut(p)
		}
	}
	if e.stepsLeft <= 0 {
		for _, p := range work {
			e.markCut(p)
		}
	}
}

// markCut records the functions on a path the step budget interrupted:
// the current one and every caller on its stack. Their alerts are marked
// Degraded, the static engine's per-function rule.
func (e *Engine) markCut(p *path) {
	e.cut[p.fn.Entry] = true
	for _, fr := range p.stack {
		e.cut[fr.fn.Entry] = true
	}
}

// runPath executes one path, appending forks to work, and reports whether
// the step budget cut it short.
func (e *Engine) runPath(p *path, work *[]*path) (cut bool) {
	for e.stepsLeft > 0 {
		blk, ok := p.fn.Blocks[p.block]
		if !ok {
			return false
		}
		if p.idx == 0 {
			vk := visitKey{fn: p.fn.Entry, block: p.block}
			p.visits[vk]++
			if p.visits[vk] > e.lim.loopBound {
				// Loop bound exceeded: abandon this activation and resume
				// the caller with a havoced result, keeping the path alive.
				if len(p.stack) == 0 {
					return false
				}
				p.pop()
				p.setR0(0)
				continue
			}
		}
		if p.idx >= len(blk.IR) {
			// Fall through to the next block.
			next := blk.End()
			if _, ok := p.fn.Blocks[next]; !ok {
				return false
			}
			p.block, p.idx = next, 0
			continue
		}
		irb := blk.IR[p.idx]
		e.stepsLeft--
		ctl := e.execInstr(p, irb, work)
		switch ctl {
		case ctlNext:
			p.idx++
		case ctlJumped:
			// position updated by execInstr
		case ctlEnd:
			return false
		}
	}
	return true
}

// pop returns to the innermost caller's continuation.
func (p *path) pop() {
	fr := p.stack[len(p.stack)-1]
	p.stack = p.stack[:len(p.stack)-1]
	p.fn, p.block, p.idx = fr.fn, fr.block, fr.idx
	p.visits = fr.visits
}

type ctlKind uint8

const (
	ctlNext ctlKind = iota
	ctlJumped
	ctlEnd
)

// eval computes an expression's value on the path's machine state and its
// taint label. A load from a tainted source region the path has not stored
// to reads a fresh unknown, not the image bytes beneath it: the source
// wrote there.
func (p *path) eval(x ir.Expr) (ucse.SVal, int) {
	switch x := x.(type) {
	case *ir.RdTmp:
		return p.st.Eval(x), p.temps[uint(x.T)%ir.MaxBlockTemps]
	case *ir.Get:
		return p.st.Eval(x), p.regs[x.R]
	case *ir.Binop:
		_, l := p.eval(x.L)
		_, r := p.eval(x.R)
		return p.st.Eval(x), p.merge(l, r)
	case *ir.Load:
		addr, label := p.eval(x.Addr)
		c, ok := addr.(ucse.SConst)
		if !ok {
			if lbl, ok := p.symPtr[pointer(addr)]; ok {
				label = p.merge(lbl, label)
			}
			return p.st.Eval(x), label
		}
		if lbl, ok := p.mem[c.V]; ok {
			return p.st.Eval(x), lbl
		}
		for _, rg := range p.regions {
			if c.V >= rg.base && c.V < rg.base+rg.size {
				return p.st.Fresh(), p.merge(rg.label, label)
			}
		}
		return p.st.Eval(x), label
	}
	return p.st.Eval(x), 0
}

// merge combines two labels, honoring per-path sanitization kills.
func (p *path) merge(a, b int) int {
	if a != 0 && !p.killed[a] {
		return a
	}
	if b != 0 && !p.killed[b] {
		return b
	}
	return 0
}

// argLabel merges the labels of the four argument registers.
func (p *path) argLabel() int {
	label := 0
	for r := isa.Reg(0); r < 4; r++ {
		label = p.merge(label, p.regs[r])
	}
	return label
}

// execInstr executes one lifted instruction.
func (e *Engine) execInstr(p *path, irb *ir.Block, work *[]*path) ctlKind {
	for _, s := range irb.Stmts {
		switch s := s.(type) {
		case *ir.WrTmp:
			v, label := p.eval(s.E)
			p.st.SetTemp(s.T, v)
			p.temps[uint(s.T)%ir.MaxBlockTemps] = label
			// Sanitization: ordering comparisons of tainted values against
			// nonzero constant bounds kill the label on this path. Region
			// taint is unaffected (the engine cannot see which object a
			// length check covered), matching its classical-source false
			// positives.
			if b, ok := s.E.(*ir.Binop); ok && (b.Op == ir.CmpLT || b.Op == ir.CmpGE) {
				l, ll := p.eval(b.L)
				r, rl := p.eval(b.R)
				if ll != 0 && nonzeroConst(r) {
					p.killed[ll] = true
				}
				if rl != 0 && nonzeroConst(l) {
					p.killed[rl] = true
				}
			}
		case *ir.Put:
			p.st.Regs[s.R], p.regs[s.R] = p.eval(s.E)
		case *ir.Store:
			addr, _ := p.eval(s.Addr)
			_, label := p.eval(s.Val)
			p.st.Step(s)
			if c, ok := addr.(ucse.SConst); ok {
				p.mem[c.V] = label
			} else if label != 0 && !p.killed[label] {
				p.symPtr[pointer(addr)] = label
			}
		case *ir.Exit:
			if c, ok := p.st.Eval(s.Cond).(ucse.SConst); ok {
				if c.V != 0 {
					return e.jumpTo(p, s.Target)
				}
				continue
			}
			// Fork: taken branch enqueued, fall-through continues.
			taken := p.clone()
			if e.jumpTo(taken, s.Target) == ctlJumped {
				*work = append(*work, taken)
			}
			continue
		case *ir.Jump:
			if s.Dyn != nil {
				// Computed jump: fork over the resolved jump-table targets.
				ts := p.fn.JumpTables[irb.Addr]
				if len(ts) == 0 {
					return ctlEnd
				}
				if len(ts) > maxForkTargets {
					ts = ts[:maxForkTargets]
				}
				for _, t := range ts[1:] {
					alt := p.clone()
					if e.jumpTo(alt, t) == ctlJumped {
						*work = append(*work, alt)
					}
				}
				return e.jumpTo(p, ts[0])
			}
			return e.jumpTo(p, s.Target)
		case *ir.Call:
			return e.execCall(p, irb, s, work)
		case *ir.Ret:
			if len(p.stack) == 0 {
				return ctlEnd
			}
			p.pop()
			return ctlJumped
		case *ir.Sys:
			p.setR0(0)
		}
	}
	return ctlNext
}

func nonzeroConst(v ucse.SVal) bool {
	c, ok := v.(ucse.SConst)
	return ok && c.V != 0
}

// jumpTo repositions the path at a block of the current function.
func (e *Engine) jumpTo(p *path, target uint32) ctlKind {
	if _, ok := p.fn.Blocks[target]; !ok {
		return ctlEnd
	}
	p.block, p.idx = target, 0
	return ctlJumped
}

// execCall handles direct, trampoline-stub and resolved indirect calls.
func (e *Engine) execCall(p *path, irb *ir.Block, c *ir.Call, work *[]*path) ctlKind {
	// Determine candidate targets.
	var targets []uint32
	switch c.Kind {
	case ir.CallDirect:
		targets = []uint32{c.Target}
	case ir.CallIndirect:
		seen := map[uint32]bool{}
		for _, cs := range p.fn.Calls {
			if cs.Addr == irb.Addr && cs.Target != 0 && !seen[cs.Target] {
				seen[cs.Target] = true
				targets = append(targets, cs.Target)
			}
		}
		if len(targets) > maxForkTargets {
			targets = targets[:maxForkTargets]
		}
	default:
		return ctlEnd // trampoline inside a stub function: not executed directly
	}
	if len(targets) == 0 {
		p.setR0(0)
		p.idx++
		return ctlJumped
	}

	// Fork on extra indirect targets.
	for _, t := range targets[1:] {
		alt := p.clone()
		if e.enterCall(alt, irb, t) {
			*work = append(*work, alt)
		}
	}
	if e.enterCall(p, irb, targets[0]) {
		return ctlJumped
	}
	p.idx++
	return ctlJumped
}

// taintPointee marks what a pointer argument points to: a concrete buffer
// becomes a tainted region of size bytes, a symbolic one taints its
// pointer identity.
func (p *path) taintPointee(arg ucse.SVal, size uint32, label int) {
	if c, ok := arg.(ucse.SConst); ok {
		p.regions = append(p.regions, region{base: c.V, size: size, label: label})
	} else {
		p.symPtr[pointer(arg)] = label
	}
}

// enterCall applies a call to one resolved target: import effects, source
// effects, or a followed call. Returns true when the path was repositioned.
func (e *Engine) enterCall(p *path, irb *ir.Block, target uint32) bool {
	// Import stub: apply the library function's effect in place.
	if im, ok := e.bin.ImportAtStub(target); ok {
		e.applyImport(p, irb.Addr, im.Name)
		p.idx++
		return true
	}
	// Intermediate source: taint the return value (or the pointees of the
	// output parameters for pointer-output sources). Tracking each source
	// is expensive, so only the first few sites get seeded before the
	// per-flow analysis time is spent — the mechanism behind Karonte-ITS's
	// longer runs with modest extra coverage.
	outParams, isOut := e.opts.ITSOut[target]
	if (e.itsSet[target] || isOut) && e.itsSeeds > 0 {
		e.itsSeeds--
		e.stepsLeft -= itsTrackingCost
		label := e.freshLabel()
		if e.itsSet[target] {
			p.setR0(label)
		} else {
			p.setR0(0)
		}
		for _, pi := range outParams {
			if pi < 4 {
				p.taintPointee(p.st.Regs[pi], 64, label)
			}
		}
		p.idx++
		return true
	}
	callee, ok := e.model.FuncAt(target)
	if !ok || callee.ImportStub {
		p.setR0(0)
		p.idx++
		return true
	}
	if len(p.stack) >= e.lim.callDepth {
		// Too deep: skip the callee; its internal flows are lost but
		// argument taint survives in the havoced result.
		p.setR0(p.argLabel())
		p.idx++
		return true
	}
	p.stack = append(p.stack, frame{fn: p.fn, block: p.block, idx: p.idx + 1, visits: p.visits})
	p.fn, p.block, p.idx = callee, callee.Entry, 0
	// Loop bounds are per activation: a fresh callee starts fresh.
	p.visits = map[visitKey]int{}
	return true
}

// applyImport models a library call: source seeding, sink checking, and
// generic taint-through behaviour.
func (e *Engine) applyImport(p *path, site uint32, name string) {
	if spec, ok := know.Sources[name]; ok {
		label := e.freshLabel()
		for _, pi := range spec.TaintedParams {
			p.taintPointee(p.st.Regs[pi], sourceBufSpan, label)
		}
		if spec.TaintsReturn {
			p.setR0(label)
		} else {
			p.setR0(0)
		}
		return
	}
	if spec, ok := know.Sinks[name]; ok {
		for _, pi := range spec.DangerousParams {
			if pi < 4 && p.taintedArg(pi) {
				from := taint.FromCTSValue
				if len(e.itsSet) > 0 {
					from = taint.FromITS
				}
				e.report(site, p.fn.Entry, name, spec.Kind, from)
				break
			}
		}
		p.setR0(0)
		return
	}
	// Generic library call: the result derives from the arguments.
	p.setR0(p.argLabel())
}

// taintedArg reports whether argument register pi carries live taint: in
// its own label, or in what it points to.
func (p *path) taintedArg(pi int) bool {
	if lbl := p.regs[pi]; lbl != 0 && !p.killed[lbl] {
		return true
	}
	arg := p.st.Regs[pi]
	c, ok := arg.(ucse.SConst)
	if !ok {
		lbl, ok := p.symPtr[pointer(arg)]
		return ok && !p.killed[lbl]
	}
	for _, rg := range p.regions {
		if c.V >= rg.base && c.V < rg.base+rg.size && !p.killed[rg.label] {
			return true
		}
	}
	lbl, ok := p.mem[c.V]
	return ok && lbl != 0 && !p.killed[lbl]
}
