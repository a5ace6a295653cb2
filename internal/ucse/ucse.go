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
	"maps"

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
)

// Engine executes one function under-constrained.
type Engine struct {
	bin   *binimg.Binary
	fn    *cfg.Function
	found map[uint32]*Resolution // call instruction addr -> resolution
	jumps map[uint32][]uint32    // computed-jump addr -> scanned targets
}

// New prepares an engine for one function of a binary.
func New(bin *binimg.Binary, fn *cfg.Function) *Engine {
	return &Engine{bin: bin, fn: fn}
}

// path is one execution path: its machine state plus the exploration
// bounds it has used up.
type path struct {
	st     *SymState
	visits map[uint32]int
	steps  int
}

func (p *path) fork() *path {
	return &path{st: p.st.Clone(), visits: maps.Clone(p.visits), steps: p.steps}
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
	init := &path{st: NewPathState(e.bin), visits: map[uint32]int{}}

	e.found = map[uint32]*Resolution{}
	e.jumps = map[uint32][]uint32{}
	paths := 0
	var walk func(p *path, blockAddr uint32)
	walk = func(p *path, blockAddr uint32) {
		if paths >= maxPaths {
			return
		}
		s := p.st
		for {
			blk, ok := e.fn.Blocks[blockAddr]
			if !ok {
				return
			}
			p.visits[blockAddr]++
			if p.visits[blockAddr] > maxBlockVisits {
				return
			}
			var branchTargets []uint32
			fellThrough := true
			for _, irb := range blk.IR {
				if p.steps++; p.steps > maxSteps {
					return
				}
				for _, st := range irb.Stmts {
					switch st := st.(type) {
					case *ir.Exit:
						// Under-constrained: both outcomes are feasible
						// unless the condition folded to a constant.
						switch c := s.Eval(st.Cond).(type) {
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
					case *ir.Ret:
						fellThrough = false
					case *ir.Call:
						e.observeCall(s, irb.Addr, st)
						s.Step(st)
					default:
						s.Step(st)
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
					walk(p.fork(), t)
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
					walk(p.fork(), t)
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

// targets resolves a dynamic control-transfer target: a constant code
// pointer, or a load from a table whose concrete base the address pins down.
// With a symbolic residue (the table-index pattern) the table is scanned;
// without one the single word at base is the target.
func (e *Engine) targets(s *SymState, dyn ir.Expr) (ts []uint32, tableBase uint32) {
	switch t := s.Eval(dyn).(type) {
	case SConst:
		if e.isCodePtr(t.V) {
			return []uint32{t.V}, 0
		}
	case SLoad:
		base, _, _, hasSym := SplitAddr(t.Addr)
		if base == 0 {
			return nil, 0
		}
		if hasSym {
			return e.scanTable(base), base
		}
		if w, ok := e.bin.WordAt(base); ok && e.isCodePtr(w) {
			return []uint32{w}, base
		}
		return nil, base
	}
	return nil, 0
}

// observeJump resolves a computed jump's table, the switch-dispatch pattern
// Load(table + index*4).
func (e *Engine) observeJump(s *SymState, addr uint32, j *ir.Jump) {
	if ts, _ := e.targets(s, j.Dyn); len(ts) > 0 {
		e.jumps[addr] = mergeTargets(e.jumps[addr], ts)
	}
}

// observeCall inspects indirect call targets at a call statement.
func (e *Engine) observeCall(s *SymState, addr uint32, c *ir.Call) {
	if c.Kind != ir.CallIndirect {
		return
	}
	ts, base := e.targets(s, c.Dyn)
	if len(ts) == 0 {
		return
	}
	if prev, ok := e.found[addr]; ok {
		prev.Targets = mergeTargets(prev.Targets, ts)
		if prev.TableBase == 0 {
			prev.TableBase = base
		}
	} else {
		e.found[addr] = &Resolution{Targets: ts, TableBase: base}
	}
}

// SplitAddr walks an additive address expression: it sums the concrete
// terms into base, reports an allocation root (hasAlloc, with its call
// site), and reports whether any other symbolic term remains (hasSym, the
// table-index pattern).
func SplitAddr(v SVal) (base, site uint32, hasAlloc, hasSym bool) {
	switch v := v.(type) {
	case SConst:
		return v.V, 0, false, false
	case SAlloc:
		return 0, v.Site, true, false
	case SBin:
		if v.Op == ir.Add {
			lb, ls, la, lsym := SplitAddr(v.L)
			rb, rs, ra, rsym := SplitAddr(v.R)
			site = ls
			if ra {
				site = rs
			}
			return lb + rb, site, la || ra, lsym || rsym
		}
		return 0, 0, false, true
	default:
		return 0, 0, false, true
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
