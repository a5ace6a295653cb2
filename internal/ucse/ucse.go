// Package ucse implements under-constrained symbolic execution over the IR.
//
// Following Ramos & Engler's UC-KLEE idea as used by the paper, execution
// starts at an arbitrary function with unconstrained ("unknown") parameters
// and memory, concretizing only what the binary itself pins down: section
// contents, the stack discipline, and constants. Its main client is indirect
// call resolution — recognizing loads of the form table[base + i*4] and
// enumerating the code pointers stored in the table — which completes the
// CFG/CG that all later stages consume.
package ucse

import (
	"fits/internal/binimg"
	"fits/internal/cfg"
	"fits/internal/ir"
	"fits/internal/isa"
)

// SVal is a symbolic value.
type SVal interface{ isSVal() }

// SConst is a known 32-bit value.
type SConst struct{ V uint32 }

// SUnknown is an under-constrained value with a fresh identity.
type SUnknown struct{ ID int }

// SBin combines symbolic values; constant folding happens at construction.
type SBin struct {
	Op   ir.BinOp
	L, R SVal
}

// SLoad is the value loaded from a (possibly symbolic) address.
type SLoad struct{ Addr SVal }

func (SConst) isSVal()   {}
func (SUnknown) isSVal() {}
func (SBin) isSVal()     {}
func (SLoad) isSVal()    {}

// Limits bounding path exploration.
const (
	maxBlockVisits  = 2
	maxSteps        = 4096
	maxPaths        = 64
	maxTableEntries = 256
	fakeStackBase   = 0xfe000000
	fakeStackSize   = 1 << 16
)

// Engine executes one function under-constrained.
type Engine struct {
	bin    *binimg.Binary
	fn     *cfg.Function
	nextID int
	found  map[uint32]*Resolution // call instruction addr -> resolution
	jumps  map[uint32][]uint32    // computed-jump addr -> scanned targets
}

// New prepares an engine for one function of a binary.
func New(bin *binimg.Binary, fn *cfg.Function) *Engine {
	return &Engine{bin: bin, fn: fn}
}

func (e *Engine) fresh() SVal {
	e.nextID++
	return SUnknown{ID: e.nextID}
}

// state is one execution path's machine state.
type state struct {
	regs   [isa.NumRegs]SVal
	temps  map[ir.Temp]SVal
	mem    map[uint32]SVal // concrete-address writes on this path
	visits map[uint32]int
	steps  int
}

func (s *state) clone() *state {
	ns := &state{regs: s.regs, temps: map[ir.Temp]SVal{}, mem: map[uint32]SVal{}, visits: map[uint32]int{}, steps: s.steps}
	for k, v := range s.mem {
		ns.mem[k] = v
	}
	for k, v := range s.visits {
		ns.visits[k] = v
	}
	// temps are block-scoped in practice; copying keeps paths independent.
	for k, v := range s.temps {
		ns.temps[k] = v
	}
	return ns
}

// simplify folds constant binops.
func simplify(op ir.BinOp, l, r SVal) SVal {
	lc, lok := l.(SConst)
	rc, rok := r.(SConst)
	if lok && rok {
		return SConst{V: op.Fold(lc.V, rc.V)}
	}
	// x + 0, x - 0 identities keep address expressions canonical.
	if (op == ir.Add || op == ir.Sub) && rok && rc.V == 0 {
		return l
	}
	if op == ir.Add && lok && lc.V == 0 {
		return r
	}
	return SBin{Op: op, L: l, R: r}
}

// eval computes an IR expression in a state.
func (e *Engine) eval(s *state, x ir.Expr) SVal {
	switch x := x.(type) {
	case *ir.Const:
		return SConst{V: uint32(x.V)}
	case *ir.RdTmp:
		if v, ok := s.temps[x.T]; ok {
			return v
		}
		return e.fresh()
	case *ir.Get:
		if v := s.regs[x.R]; v != nil {
			return v
		}
		return e.fresh()
	case *ir.Binop:
		return simplify(x.Op, e.eval(s, x.L), e.eval(s, x.R))
	case *ir.Load:
		addr := e.eval(s, x.Addr)
		if c, ok := addr.(SConst); ok {
			if v, ok := s.mem[c.V]; ok {
				return v
			}
			if x.Size == 1 {
				if b, ok := e.bin.ByteAt(c.V); ok {
					return SConst{V: uint32(b)}
				}
			} else if w, ok := e.bin.WordAt(c.V); ok {
				return SConst{V: w}
			}
			// Uninitialized stack or bss reads are unknown.
			return e.fresh()
		}
		return SLoad{Addr: addr}
	}
	return e.fresh()
}

// Resolution is the outcome of indirect-target analysis for one call site.
type Resolution struct {
	Site    cfg.CallSite
	Targets []uint32
	// TableBase is the resolved dispatch table address, when one was found.
	TableBase uint32
}

// Explore runs bounded under-constrained execution over the function and
// returns a resolution for every indirect call site it reaches.
func (e *Engine) Explore() []Resolution {
	init := &state{temps: map[ir.Temp]SVal{}, mem: map[uint32]SVal{}, visits: map[uint32]int{}}
	for r := 0; r < isa.NumRegs; r++ {
		init.regs[r] = e.fresh()
	}
	init.regs[isa.SP] = SConst{V: fakeStackBase + fakeStackSize/2}

	e.found = map[uint32]*Resolution{}
	e.jumps = map[uint32][]uint32{}
	paths := 0
	var walk func(s *state, blockAddr uint32)
	walk = func(s *state, blockAddr uint32) {
		if paths >= maxPaths {
			return
		}
		for {
			blk, ok := e.fn.Blocks[blockAddr]
			if !ok {
				return
			}
			s.visits[blockAddr]++
			if s.visits[blockAddr] > maxBlockVisits {
				return
			}
			var branchTargets []uint32
			fellThrough := true
			for _, irb := range blk.IR {
				if s.steps++; s.steps > maxSteps {
					return
				}
				for _, st := range irb.Stmts {
					switch st := st.(type) {
					case *ir.WrTmp:
						s.temps[st.T] = e.eval(s, st.E)
					case *ir.Put:
						s.regs[st.R] = e.eval(s, st.E)
					case *ir.Store:
						addr := e.eval(s, st.Addr)
						val := e.eval(s, st.Val)
						if c, ok := addr.(SConst); ok {
							s.mem[c.V] = val
						}
					case *ir.Exit:
						// Under-constrained: both outcomes are feasible
						// unless the condition folded to a constant.
						switch c := e.eval(s, st.Cond).(type) {
						case SConst:
							if c.V != 0 {
								branchTargets = append(branchTargets, st.Target)
								fellThrough = false
							}
						default:
							branchTargets = append(branchTargets, st.Target)
						}
					case *ir.Jump:
						if st.Dyn == nil {
							branchTargets = append(branchTargets, st.Target)
						} else {
							e.observeJump(s, irb.Addr, st)
						}
						fellThrough = false
					case *ir.Call:
						e.observeCall(s, irb.Addr, st)
						// Havoc caller-saved registers after the call.
						for r := isa.Reg(0); r < 4; r++ {
							s.regs[r] = e.fresh()
						}
						s.regs[isa.LR] = e.fresh()
					case *ir.Ret:
						fellThrough = false
					case *ir.Sys:
						s.regs[isa.R0] = e.fresh()
					}
				}
				if !fellThrough && len(branchTargets) == 0 {
					// Terminal (ret or dynamic jump): path ends.
					break
				}
			}
			if fellThrough {
				// Conditional (or no) exits: fork on taken edges, continue
				// on the fall-through edge.
				for _, t := range branchTargets {
					paths++
					walk(s.clone(), t)
				}
				next := blk.End()
				if _, ok := e.fn.Blocks[next]; ok {
					blockAddr = next
					continue
				}
				return
			}
			switch len(branchTargets) {
			case 0:
				return
			case 1:
				blockAddr = branchTargets[0]
				continue
			default:
				for _, t := range branchTargets {
					paths++
					walk(s.clone(), t)
				}
				return
			}
		}
	}
	walk(init, e.fn.Entry)

	out := make([]Resolution, 0, len(e.found))
	for _, cs := range e.fn.Calls {
		if res, ok := e.found[cs.Addr]; ok {
			res.Site = cs
			out = append(out, *res)
		}
	}
	return out
}

func mergeTargets(a, b []uint32) []uint32 {
	seen := map[uint32]bool{}
	for _, t := range a {
		seen[t] = true
	}
	for _, t := range b {
		if !seen[t] {
			seen[t] = true
			a = append(a, t)
		}
	}
	return a
}

// JumpTargets returns the computed-jump resolutions gathered by Explore,
// keyed by jump instruction address.
func (e *Engine) JumpTargets() map[uint32][]uint32 {
	return e.jumps
}

// observeJump resolves a computed jump's table, the switch-dispatch pattern
// Load(table + index*4).
func (e *Engine) observeJump(s *state, addr uint32, j *ir.Jump) {
	target := e.eval(s, j.Dyn)
	var ts []uint32
	switch t := target.(type) {
	case SConst:
		if e.isCodePtr(t.V) {
			ts = []uint32{t.V}
		}
	case SLoad:
		base, hasSym := splitAddr(t.Addr)
		if base != 0 {
			if hasSym {
				ts = e.scanTable(base)
			} else if w, ok := e.bin.WordAt(base); ok && e.isCodePtr(w) {
				ts = []uint32{w}
			}
		}
	}
	if len(ts) > 0 {
		e.jumps[addr] = mergeTargets(e.jumps[addr], ts)
	}
}

// observeCall inspects indirect call targets at a call statement.
func (e *Engine) observeCall(s *state, addr uint32, c *ir.Call) {
	if c.Kind != ir.CallIndirect {
		return
	}
	target := e.eval(s, c.Dyn)
	res := &Resolution{}
	switch t := target.(type) {
	case SConst:
		if e.isCodePtr(t.V) {
			res.Targets = []uint32{t.V}
		}
	case SLoad:
		base, hasSym := splitAddr(t.Addr)
		if base != 0 {
			res.TableBase = base
			if hasSym {
				res.Targets = e.scanTable(base)
			} else if w, ok := e.bin.WordAt(base); ok && e.isCodePtr(w) {
				res.Targets = []uint32{w}
			}
		}
	}
	if len(res.Targets) > 0 {
		if prev, ok := e.found[addr]; ok {
			prev.Targets = mergeTargets(prev.Targets, res.Targets)
			if prev.TableBase == 0 {
				prev.TableBase = res.TableBase
			}
		} else {
			e.found[addr] = res
		}
	}
}

// splitAddr decomposes an address expression into its concrete component and
// reports whether a symbolic residue remains (the table-index pattern).
func splitAddr(v SVal) (base uint32, hasSym bool) {
	switch v := v.(type) {
	case SConst:
		return v.V, false
	case SBin:
		if v.Op == ir.Add {
			lb, ls := splitAddr(v.L)
			rb, rs := splitAddr(v.R)
			return lb + rb, ls || rs
		}
		return 0, true
	default:
		return 0, true
	}
}

// isCodePtr reports whether v is an instruction-aligned text address.
func (e *Engine) isCodePtr(v uint32) bool {
	return e.bin.Text.Contains(v) && (v-e.bin.Text.Addr)%isa.Width == 0
}

// scanTable enumerates consecutive code pointers stored at base, the
// over-approximate jump-table recovery used when the index is unconstrained.
func (e *Engine) scanTable(base uint32) []uint32 {
	var out []uint32
	for i := 0; i < maxTableEntries; i++ {
		addr := base + uint32(i*isa.WordSize)
		w, ok := e.bin.WordAt(addr)
		if !ok || !e.isCodePtr(w) {
			break
		}
		out = append(out, w)
	}
	return out
}
