package cfg

import "slices"

// findLoops computes natural loops from back edges using dominators.
func findLoops(f *Function) []Loop {
	preds := f.Predecessors()
	idom := dominators(f, preds)
	var loops []Loop
	for _, ba := range f.Order {
		b := f.Blocks[ba]
		for _, succ := range b.Succs {
			if _, ok := f.Blocks[succ]; !ok {
				continue
			}
			if Dominates(idom, succ, ba) {
				loops = append(loops, naturalLoop(f, preds, succ, ba))
			}
		}
	}
	slices.SortFunc(loops, func(a, b Loop) int { return int(a.Head) - int(b.Head) })
	return loops
}

// Dominators computes the immediate dominator of every reachable block with
// the iterative dataflow algorithm (Cooper/Harvey/Kennedy). The entry block
// maps to itself.
func Dominators(f *Function) map[uint32]uint32 {
	return dominators(f, f.Predecessors())
}

func dominators(f *Function, preds map[uint32][]uint32) map[uint32]uint32 {
	order := f.ReversePostorder()
	index := map[uint32]int{}
	for i, a := range order {
		index[a] = i
	}
	idom := map[uint32]uint32{f.Entry: f.Entry}

	intersect := func(a, b uint32) uint32 {
		for a != b {
			for index[a] > index[b] {
				a = idom[a]
			}
			for index[b] > index[a] {
				b = idom[b]
			}
		}
		return a
	}

	for changed := true; changed; {
		changed = false
		for _, b := range order {
			if b == f.Entry {
				continue
			}
			var newIdom uint32
			found := false
			for _, p := range preds[b] {
				if _, ok := idom[p]; !ok {
					continue
				}
				if !found {
					newIdom = p
					found = true
				} else {
					newIdom = intersect(newIdom, p)
				}
			}
			if !found {
				continue
			}
			if cur, ok := idom[b]; !ok || cur != newIdom {
				idom[b] = newIdom
				changed = true
			}
		}
	}
	return idom
}

// Dominates reports whether a dominates b under the idom map Dominators
// returns.
func Dominates(idom map[uint32]uint32, a, b uint32) bool {
	for {
		if a == b {
			return true
		}
		next, ok := idom[b]
		if !ok || next == b {
			return false
		}
		b = next
	}
}

// naturalLoop collects the body of the loop with the given head and back
// edge source (tail), walking predecessors from the tail until the head.
func naturalLoop(f *Function, preds map[uint32][]uint32, head, tail uint32) Loop {
	body := map[uint32]bool{head: true}
	stack := []uint32{tail}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if body[n] {
			continue
		}
		body[n] = true
		stack = append(stack, preds[n]...)
	}
	return Loop{Head: head, Body: body}
}

// Predecessors builds the reverse edge map, restricted to in-function
// blocks; each list is in ascending block order.
func (f *Function) Predecessors() map[uint32][]uint32 {
	preds := map[uint32][]uint32{}
	for _, ba := range f.Order {
		for _, s := range f.Blocks[ba].Succs {
			if _, ok := f.Blocks[s]; ok {
				preds[s] = append(preds[s], ba)
			}
		}
	}
	return preds
}

// ReversePostorder returns the blocks reachable from the entry in reverse
// postorder of a depth-first walk, restricted to the function's own blocks.
// Successors are visited in their stored order, so the result is
// deterministic for a given CFG.
func (f *Function) ReversePostorder() []uint32 {
	if _, ok := f.Blocks[f.Entry]; !ok {
		return nil
	}
	seen := make(map[uint32]bool, len(f.Blocks))
	post := make([]uint32, 0, len(f.Blocks))
	// Iterative DFS; the frame remembers how many successors were expanded.
	type frame struct {
		addr uint32
		next int
	}
	stack := []frame{{addr: f.Entry}}
	seen[f.Entry] = true
	for len(stack) > 0 {
		fr := &stack[len(stack)-1]
		succs := f.Blocks[fr.addr].Succs
		advanced := false
		for fr.next < len(succs) {
			s := succs[fr.next]
			fr.next++
			if _, ok := f.Blocks[s]; ok && !seen[s] {
				seen[s] = true
				stack = append(stack, frame{addr: s})
				advanced = true
				break
			}
		}
		if !advanced {
			post = append(post, fr.addr)
			stack = stack[:len(stack)-1]
		}
	}
	slices.Reverse(post)
	return post
}
