package karonte

import (
	"fits/internal/cfg"
	"fits/internal/ir"
	"fits/internal/isa"
	"fits/internal/know"
	"fits/internal/taint"
)

const (
	fakeStackTop   = 0xfd000000
	sourceBufSpan  = 1024 // assumed extent of an interface function's output buffer
	maxForkTargets = 12
	// itsTrackingCost is the budget surcharge per seeded intermediate
	// source: more taint sources, more symbolic data-flow tracking.
	itsTrackingCost = 4000
)

// kval is a path value: concrete word or symbol, plus a taint label
// (0 = untainted). Additive operations preserve the symbol identity so that
// pointer arithmetic keeps pointing at the same symbolic object.
type kval struct {
	concrete bool
	c        uint32
	sym      int
	label    int
}

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

// pstate is one execution path.
type pstate struct {
	fn    *cfg.Function
	block uint32
	idx   int

	regs    [isa.NumRegs]kval
	temps   map[ir.Temp]kval
	mem     map[uint32]kval
	symPtr  map[int]int // symbolic pointer -> pointee taint label
	regions []region
	killed  map[int]bool
	visits  map[visitKey]int
	stack   []frame
}

func (p *pstate) clone() *pstate {
	np := &pstate{
		fn: p.fn, block: p.block, idx: p.idx,
		regs:    p.regs,
		temps:   map[ir.Temp]kval{},
		mem:     make(map[uint32]kval, len(p.mem)),
		symPtr:  make(map[int]int, len(p.symPtr)),
		killed:  make(map[int]bool, len(p.killed)),
		visits:  make(map[visitKey]int, len(p.visits)),
		stack:   make([]frame, len(p.stack)),
		regions: append([]region(nil), p.regions...),
	}
	for i, fr := range p.stack {
		nfr := fr
		nfr.visits = make(map[visitKey]int, len(fr.visits))
		for k, v := range fr.visits {
			nfr.visits[k] = v
		}
		np.stack[i] = nfr
	}
	for k, v := range p.temps {
		np.temps[k] = v
	}
	for k, v := range p.mem {
		np.mem[k] = v
	}
	for k, v := range p.symPtr {
		np.symPtr[k] = v
	}
	for k, v := range p.killed {
		np.killed[k] = v
	}
	for k, v := range p.visits {
		np.visits[k] = v
	}
	return np
}

func (e *Engine) freshSym() int {
	e.nextSym++
	return e.nextSym
}

func (e *Engine) freshLabel() int {
	e.nextLabel++
	return e.nextLabel
}

func symval(sym, label int) kval { return kval{sym: sym, label: label} }
func conc(c uint32) kval         { return kval{concrete: true, c: c} }

// explore runs bounded DFS from one seed function.
func (e *Engine) explore(entry uint32) {
	fn, ok := e.model.FuncAt(entry)
	if !ok || fn.ImportStub {
		return
	}
	init := &pstate{
		fn: fn, block: fn.Entry,
		temps: map[ir.Temp]kval{}, mem: map[uint32]kval{},
		symPtr: map[int]int{}, killed: map[int]bool{}, visits: map[visitKey]int{},
	}
	for r := 0; r < isa.NumRegs; r++ {
		init.regs[r] = symval(e.freshSym(), 0)
	}
	init.regs[isa.SP] = conc(fakeStackTop)

	paths := 0
	work := []*pstate{init}
	for len(work) > 0 && e.stepsLeft > 0 && paths < e.opts.MaxPaths {
		p := work[len(work)-1]
		work = work[:len(work)-1]
		paths++
		e.runPath(p, &work)
	}
}

// runPath executes one path to completion, appending forks to work.
func (e *Engine) runPath(p *pstate, work *[]*pstate) {
	for e.stepsLeft > 0 {
		blk, ok := p.fn.Blocks[p.block]
		if !ok {
			return
		}
		if p.idx == 0 {
			vk := visitKey{fn: p.fn.Entry, block: p.block}
			p.visits[vk]++
			if p.visits[vk] > e.opts.LoopBound {
				// Loop bound exceeded: abandon this activation and resume
				// the caller with a havoced result, keeping the path alive.
				if len(p.stack) == 0 {
					return
				}
				fr := p.stack[len(p.stack)-1]
				p.stack = p.stack[:len(p.stack)-1]
				p.fn, p.block, p.idx = fr.fn, fr.block, fr.idx
				p.visits = fr.visits
				p.regs[isa.R0] = symval(e.freshSym(), 0)
				continue
			}
		}
		if p.idx >= len(blk.IR) {
			// Fall through to the next block.
			next := blk.End()
			if _, ok := p.fn.Blocks[next]; !ok {
				return
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
			return
		}
	}
}

type ctlKind uint8

const (
	ctlNext ctlKind = iota
	ctlJumped
	ctlEnd
)

// eval computes an IR expression over the path state.
func (e *Engine) eval(p *pstate, x ir.Expr) kval {
	switch x := x.(type) {
	case *ir.Const:
		return conc(uint32(x.V))
	case *ir.RdTmp:
		if v, ok := p.temps[x.T]; ok {
			return v
		}
		return symval(e.freshSym(), 0)
	case *ir.Get:
		return p.regs[x.R]
	case *ir.Binop:
		l := e.eval(p, x.L)
		r := e.eval(p, x.R)
		label := mergeLabel(p, l.label, r.label)
		if l.concrete && r.concrete {
			return kval{concrete: true, c: x.Op.Fold(l.c, r.c), label: label}
		}
		// Additive pointer arithmetic keeps the symbolic base.
		if x.Op == ir.Add || x.Op == ir.Sub {
			if !l.concrete {
				return kval{sym: l.sym, label: label}
			}
			return kval{sym: r.sym, label: label}
		}
		return symval(e.freshSym(), label)
	case *ir.Load:
		addr := e.eval(p, x.Addr)
		if addr.concrete {
			if v, ok := p.mem[addr.c]; ok {
				return v
			}
			for _, rg := range p.regions {
				if addr.c >= rg.base && addr.c < rg.base+rg.size {
					return symval(e.freshSym(), mergeLabel(p, rg.label, addr.label))
				}
			}
			if x.Size == 1 {
				if b, ok := e.bin.ByteAt(addr.c); ok {
					return kval{concrete: true, c: uint32(b), label: addr.label}
				}
			} else if w, ok := e.bin.WordAt(addr.c); ok {
				return kval{concrete: true, c: w, label: addr.label}
			}
			return symval(e.freshSym(), addr.label)
		}
		if lbl, ok := p.symPtr[addr.sym]; ok {
			return symval(e.freshSym(), mergeLabel(p, lbl, addr.label))
		}
		return symval(e.freshSym(), addr.label)
	}
	return symval(e.freshSym(), 0)
}

// mergeLabel combines two labels, honoring per-path sanitization kills.
func mergeLabel(p *pstate, a, b int) int {
	if a != 0 && !p.killed[a] {
		return a
	}
	if b != 0 && !p.killed[b] {
		return b
	}
	return 0
}

// execInstr executes one lifted instruction.
func (e *Engine) execInstr(p *pstate, irb *ir.Block, work *[]*pstate) ctlKind {
	for _, s := range irb.Stmts {
		switch s := s.(type) {
		case *ir.WrTmp:
			p.temps[s.T] = e.eval(p, s.E)
			// Sanitization: ordering comparisons of tainted values against
			// nonzero constant bounds kill the label on this path. Region
			// taint is unaffected (the engine cannot see which object a
			// length check covered), matching its classical-source false
			// positives.
			if b, ok := s.E.(*ir.Binop); ok && (b.Op == ir.CmpLT || b.Op == ir.CmpGE) {
				l := e.eval(p, b.L)
				r := e.eval(p, b.R)
				if l.label != 0 && r.concrete && r.c != 0 {
					p.killed[l.label] = true
				}
				if r.label != 0 && l.concrete && l.c != 0 {
					p.killed[r.label] = true
				}
			}
		case *ir.Put:
			p.regs[s.R] = e.eval(p, s.E)
		case *ir.Store:
			addr := e.eval(p, s.Addr)
			val := e.eval(p, s.Val)
			if addr.concrete {
				p.mem[addr.c] = val
			} else if val.label != 0 && !p.killed[val.label] {
				p.symPtr[addr.sym] = val.label
			}
		case *ir.Exit:
			cond := e.eval(p, s.Cond)
			if cond.concrete {
				if cond.c != 0 {
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
			fr := p.stack[len(p.stack)-1]
			p.stack = p.stack[:len(p.stack)-1]
			p.fn, p.block, p.idx = fr.fn, fr.block, fr.idx
			p.visits = fr.visits
			return ctlJumped
		case *ir.Sys:
			p.regs[isa.R0] = symval(e.freshSym(), 0)
		}
	}
	return ctlNext
}

// jumpTo repositions the path at a block of the current function.
func (e *Engine) jumpTo(p *pstate, target uint32) ctlKind {
	if _, ok := p.fn.Blocks[target]; !ok {
		return ctlEnd
	}
	p.block, p.idx = target, 0
	return ctlJumped
}

// execCall handles direct, trampoline-stub and resolved indirect calls.
func (e *Engine) execCall(p *pstate, irb *ir.Block, c *ir.Call, work *[]*pstate) ctlKind {
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
		p.regs[isa.R0] = symval(e.freshSym(), 0)
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

// enterCall applies a call to one resolved target: import effects, source
// effects, or a followed call. Returns true when the path was repositioned.
func (e *Engine) enterCall(p *pstate, irb *ir.Block, target uint32) bool {
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
	outParams, isOut := e.itsOut(target)
	if (e.itsSet[target] || isOut) && e.itsSeeds > 0 {
		e.itsSeeds--
		e.stepsLeft -= itsTrackingCost
		label := e.freshLabel()
		if e.itsSet[target] {
			p.regs[isa.R0] = symval(e.freshSym(), label)
		} else {
			p.regs[isa.R0] = symval(e.freshSym(), 0)
		}
		for _, pi := range outParams {
			if pi >= 4 {
				continue
			}
			arg := p.regs[pi]
			if arg.concrete {
				p.regions = append(p.regions, region{base: arg.c, size: 64, label: label})
			} else {
				p.symPtr[arg.sym] = label
			}
		}
		p.idx++
		return true
	}
	callee, ok := e.model.FuncAt(target)
	if !ok || callee.ImportStub {
		p.regs[isa.R0] = symval(e.freshSym(), 0)
		p.idx++
		return true
	}
	if len(p.stack) >= e.opts.MaxCallDepth {
		// Too deep: skip the callee; its internal flows are lost but
		// argument taint survives in the havoced result.
		label := 0
		for r := isa.Reg(0); r < 4; r++ {
			label = mergeLabel(p, label, p.regs[r].label)
		}
		p.regs[isa.R0] = symval(e.freshSym(), label)
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
func (e *Engine) applyImport(p *pstate, site uint32, name string) {
	if spec, ok := know.Sources[name]; ok && e.opts.UseCTS {
		label := e.freshLabel()
		for _, pi := range spec.TaintedParams {
			arg := p.regs[pi]
			if arg.concrete {
				p.regions = append(p.regions, region{base: arg.c, size: sourceBufSpan, label: label})
			} else {
				p.symPtr[arg.sym] = label
			}
		}
		ret := 0
		if spec.TaintsReturn {
			ret = label
		}
		p.regs[isa.R0] = symval(e.freshSym(), ret)
		return
	}
	if spec, ok := know.Sinks[name]; ok {
		for _, pi := range spec.DangerousParams {
			if pi >= 4 {
				continue
			}
			arg := p.regs[pi]
			tainted := arg.label != 0 && !p.killed[arg.label]
			if !tainted && !arg.concrete {
				if lbl, ok := p.symPtr[arg.sym]; ok && !p.killed[lbl] {
					tainted = true
				}
			}
			if !tainted && arg.concrete {
				for _, rg := range p.regions {
					if arg.c >= rg.base && arg.c < rg.base+rg.size && !p.killed[rg.label] {
						tainted = true
					}
				}
				if !tainted {
					if v, ok := p.mem[arg.c]; ok && v.label != 0 && !p.killed[v.label] {
						tainted = true
					}
				}
			}
			if tainted {
				from := taint.FromCTSValue
				if len(e.itsSet) > 0 {
					from = taint.FromITS
				}
				e.report(site, p.fn.Entry, name, spec.Kind, from)
				break
			}
		}
		p.regs[isa.R0] = symval(e.freshSym(), 0)
		return
	}
	// Generic library call: the result derives from the arguments.
	label := 0
	for r := isa.Reg(0); r < 4; r++ {
		label = mergeLabel(p, label, p.regs[r].label)
	}
	p.regs[isa.R0] = symval(e.freshSym(), label)
}
