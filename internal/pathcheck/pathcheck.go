// Package pathcheck decides, per alert, whether any execution path from
// the function entry to the sink call can satisfy every branch condition
// it must pass — sink-to-source constraint backtracking without an SMT
// dependency. It walks the sink block's dominator chain with the UCSE
// symbolic evaluator, and at every dominator whose conditional branch has
// exactly one sink-reaching side it records the condition with the
// polarity the sink requires. A small interval/disequality solver over the
// collected conditions then looks for a contradiction; one refutes the
// alert, and the contradicting pair is rendered into the alert for
// explainability.
//
// The pass must only ever discard alerts that are genuinely dead, so every
// approximation leans toward "feasible": registers and memory are havocked
// across calls, syscalls, untracked stores and any control-flow edge that
// is not the unique direct edge between consecutive dominators; values
// containing symbolic-address loads are never constrained (their identity
// would not survive a clobber); and budget exhaustion returns feasible.
package pathcheck

import (
	"fmt"

	"fits/internal/binimg"
	"fits/internal/cfg"
	"fits/internal/ir"
	"fits/internal/ucse"
)

// Budgets: dominator chains longer than maxChain are not walked, and no
// more than maxConstraints conditions are collected. Exceeding either
// leaves the alert feasible.
const (
	maxChain       = 128
	maxConstraints = 64
)

// Result is the feasibility verdict for one sink site.
type Result struct {
	// Infeasible is set when the collected path condition is
	// unsatisfiable; Refuted then renders the contradicting constraints.
	Infeasible bool
	Refuted    string
}

// Check analyzes the path condition of the sink call at site inside fn.
func Check(bin *binimg.Binary, fn *cfg.Function, site uint32) Result {
	if fn == nil || fn.ImportStub {
		return Result{}
	}
	b := fn.BlockAt(site)
	if b == nil {
		return Result{}
	}
	sink := b.Start
	idom := cfg.Dominators(fn)
	chain := dominatorChain(fn, idom, sink)
	if chain == nil || len(chain) > maxChain {
		return Result{}
	}
	preds := fn.Predecessors()
	reach := reachesSet(fn, preds, sink)

	st := ucse.NewSymState(bin)
	sol := newSolver()
	for i, ba := range chain {
		if ba == sink {
			break
		}
		blk := fn.Blocks[ba]
		if blk == nil {
			return Result{}
		}
		// State carries over from the previous dominator only along its
		// unique direct edge; any other join or back edge may have run
		// arbitrary code first.
		if i > 0 && !uniqueDirectEdge(fn, preds, chain[i-1], ba) {
			st.HavocAll()
		}
		exits := 0
		var cond ucse.SVal
		var taken uint32
		for _, irb := range blk.IR {
			for _, s := range irb.Stmts {
				if x, ok := s.(*ir.Exit); ok {
					exits++
					taken = x.Target
					cond = st.Eval(x.Cond)
					continue
				}
				if st.Step(s) {
					st.HavocMemory()
				}
			}
		}
		// A dominator constrains the path only when it branches two ways
		// and exactly one side can still reach the sink.
		if exits != 1 || len(blk.Succs) != 2 {
			continue
		}
		fall := blk.Succs[0]
		if fall == taken {
			fall = blk.Succs[1]
		}
		if fall == taken || (blk.Succs[0] != taken && blk.Succs[1] != taken) {
			continue
		}
		if reach[taken] == reach[fall] {
			continue
		}
		if !sol.add(ba, cond, reach[taken]) {
			return Result{Infeasible: true, Refuted: sol.refuted}
		}
	}
	return Result{}
}

// dominatorChain returns entry..sink along immediate dominators, or nil
// when the sink block is not connected to the entry in the dominator tree.
func dominatorChain(fn *cfg.Function, idom map[uint32]uint32, sink uint32) []uint32 {
	var rev []uint32
	for b := sink; ; {
		rev = append(rev, b)
		if b == fn.Entry {
			break
		}
		p, ok := idom[b]
		if !ok || p == b || len(rev) > maxChain {
			return nil
		}
		b = p
	}
	chain := make([]uint32, len(rev))
	for i, b := range rev {
		chain[len(rev)-1-i] = b
	}
	return chain
}

// reachesSet returns the set of blocks from which the sink block is
// reachable, the sink itself included.
func reachesSet(fn *cfg.Function, preds map[uint32][]uint32, sink uint32) map[uint32]bool {
	reach := map[uint32]bool{sink: true}
	work := []uint32{sink}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		for _, p := range preds[b] {
			if !reach[p] {
				reach[p] = true
				work = append(work, p)
			}
		}
	}
	return reach
}

// uniqueDirectEdge reports whether cur's only predecessor is prev and prev
// branches directly to it — the one shape where prev's exit state is
// exactly cur's entry state.
func uniqueDirectEdge(fn *cfg.Function, preds map[uint32][]uint32, prev, cur uint32) bool {
	if len(preds[cur]) != 1 || preds[cur][0] != prev {
		return false
	}
	for _, s := range fn.Blocks[prev].Succs {
		if s == cur {
			return true
		}
	}
	return false
}

// solver accumulates branch constraints as signed 32-bit intervals plus
// disequalities per symbolic variable, detecting contradictions as they
// arrive. Variables are identified by their deterministic rendering.
type solver struct {
	vars    map[string]*bounds
	n       int
	refuted string
}

type bounds struct {
	lo, hi       int64
	loWhy, hiWhy string
	notEq        map[int64]string
}

func newSolver() *solver {
	return &solver{vars: map[string]*bounds{}}
}

func (s *solver) boundsFor(key string) *bounds {
	b, ok := s.vars[key]
	if !ok {
		b = &bounds{lo: -1 << 31, hi: 1<<31 - 1, notEq: map[int64]string{}}
		s.vars[key] = b
	}
	return b
}

// add records that cond must evaluate to want at block blk on every
// sink-reaching path. It returns false on contradiction with the
// constraints already collected, leaving the rendered refutation in
// s.refuted. Conditions the solver cannot represent constrain nothing.
func (s *solver) add(blk uint32, cond ucse.SVal, want bool) bool {
	if s.n >= maxConstraints {
		return true
	}
	s.n++
	switch c := cond.(type) {
	case ucse.SConst:
		if (c.V != 0) != want {
			s.refuted = fmt.Sprintf("0x%x: branch condition is constant %d but the sink needs %v", blk, c.V, want)
			return false
		}
		return true
	case ucse.SBin:
		op, l, r := c.Op, c.L, c.R
		if !want {
			switch op {
			case ir.CmpLT:
				op = ir.CmpGE
			case ir.CmpGE:
				op = ir.CmpLT
			case ir.CmpEQ:
				op = ir.CmpNE
			case ir.CmpNE:
				op = ir.CmpEQ
			default:
				return true
			}
		}
		lc, lok := l.(ucse.SConst)
		rc, rok := r.(ucse.SConst)
		switch {
		case rok && !lok:
			return s.apply(blk, l, op, int64(int32(rc.V)), false)
		case lok && !rok:
			return s.apply(blk, r, op, int64(int32(lc.V)), true)
		}
	}
	return true
}

// apply narrows the interval of variable v with "v op c" (or "c op v" when
// flipped). Signed 32-bit comparison semantics match the IR's.
func (s *solver) apply(blk uint32, v ucse.SVal, op ir.BinOp, c int64, flipped bool) bool {
	if ucse.HasLoad(v) {
		return true
	}
	key := ucse.Render(v)
	b := s.boundsFor(key)
	why := func(rel string, val int64) string {
		return fmt.Sprintf("0x%x: %s %s %d", blk, key, rel, val)
	}
	setLo := func(val int64, src string) {
		if val > b.lo {
			b.lo, b.loWhy = val, src
		}
	}
	setHi := func(val int64, src string) {
		if val < b.hi {
			b.hi, b.hiWhy = val, src
		}
	}
	switch op {
	case ir.CmpLT:
		if flipped { // c < v
			setLo(c+1, why(">=", c+1))
		} else { // v < c
			setHi(c-1, why("<=", c-1))
		}
	case ir.CmpGE:
		if flipped { // c >= v
			setHi(c, why("<=", c))
		} else { // v >= c
			setLo(c, why(">=", c))
		}
	case ir.CmpEQ:
		src := why("==", c)
		setLo(c, src)
		setHi(c, src)
	case ir.CmpNE:
		if _, ok := b.notEq[c]; !ok {
			b.notEq[c] = why("!=", c)
		}
	default:
		return true
	}
	if b.lo > b.hi {
		s.refuted = b.loWhy + " contradicts " + b.hiWhy
		return false
	}
	if b.lo == b.hi {
		if src, ok := b.notEq[b.lo]; ok {
			pin := b.loWhy
			if pin == "" {
				pin = b.hiWhy
			}
			s.refuted = pin + " contradicts " + src
			return false
		}
	}
	return true
}
