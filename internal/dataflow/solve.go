package dataflow

import "fits/internal/cfg"

// Lattice is the state contract of Forward, met by a pointer to the state:
// Clone returns a state observationally equal to the receiver, and Join
// merges o into the receiver and reports whether the receiver changed.
type Lattice[S any] interface {
	*S
	Clone() S
	Join(o *S) bool
}

// maxPasses bounds every Forward fixpoint as full sweeps over the blocks in
// reverse postorder, not worklist pops: one pass visits every pending block
// once, so the budget a function gets scales with its size instead of
// silently starving large functions. The lattices are shallow (taint bits
// only grow, shapes only collapse to Top), so convergence needs about one
// pass per level of loop nesting; 64 is far beyond any real CFG and exists
// only as a runaway guard. Exhaustion is surfaced as Solution.Converged ==
// false. A variable only so tests can drive the truncation path.
var maxPasses = 64

// Solution is the outcome of a Forward fixpoint: the in-state of every block
// the entry reaches.
type Solution[S any] struct {
	fn    *cfg.Function
	nodes []node[S] // by position in fn.Order
	// Converged is false when the pass budget ran out first; the in-states
	// are then a sound-but-incomplete snapshot.
	Converged bool
}

// node is one block's input state, its reverse-postorder position and its
// worklist bits, fused into a single allocation.
type node[S any] struct {
	in    S
	rpo   int32
	dirty bool
	have  bool
}

// In returns block b's input state at the fixpoint, or nil when no path from
// the entry reaches b.
func (s *Solution[S]) In(b uint32) *S {
	if i, ok := s.fn.OrderIndex(b); ok && s.nodes[i].have {
		return &s.nodes[i].in
	}
	return nil
}

// Forward solves a forward dataflow problem over fn: the entry block starts
// from entry, transfer rewrites a copy of a block's input state into its
// output, and outputs are joined into successors' inputs. Blocks are visited
// in sweeps in reverse postorder: every block sees its forward predecessors'
// fresh output within the same sweep, and the visit order — hence the join
// order, hence every intermediate state — is a function of the CFG alone, so
// a transfer with side effects acts identically on every run. A sweep runs
// again only when a back edge changed an input already visited; after
// maxPasses sweeps the solver stops with Converged false.
func Forward[S any, P Lattice[S]](fn *cfg.Function, entry S, transfer func(*cfg.BasicBlock, *S)) Solution[S] {
	order := fn.ReversePostorder()
	// Nodes are indexed by block order, so lookups are binary searches of
	// fn.Order rather than a map that would outlive this call. The extra
	// trailing node is the scratch output state: transfer is an opaque
	// call, so a local would escape to the heap on every visit.
	nodes := make([]node[S], len(fn.Order)+1)
	sol := Solution[S]{fn: fn, nodes: nodes, Converged: len(order) == 0}
	nodes, out := nodes[:len(fn.Order)], &nodes[len(fn.Order)].in
	for i, b := range order {
		oi, _ := fn.OrderIndex(b)
		nodes[oi].rpo = int32(i)
		if i == 0 {
			nodes[oi].in, nodes[oi].have, nodes[oi].dirty = entry, true, true
		}
	}
	for pass := 0; pass < maxPasses && !sol.Converged; pass++ {
		pending := false
		for i, b := range order {
			oi, _ := fn.OrderIndex(b)
			if !nodes[oi].dirty {
				continue
			}
			nodes[oi].dirty = false
			blk := fn.Blocks[b]
			*out = P(&nodes[oi].in).Clone()
			transfer(blk, out)
			for _, succ := range blk.Succs {
				si, ok := fn.OrderIndex(succ)
				if !ok {
					continue
				}
				n := &nodes[si]
				if !n.have {
					n.in, n.have = P(out).Clone(), true
				} else if !P(&n.in).Join(out) {
					continue
				}
				if !n.dirty {
					n.dirty = true
					if int(n.rpo) <= i {
						pending = true // back edge: needs another pass
					}
				}
			}
		}
		sol.Converged = !pending
	}
	return sol
}
