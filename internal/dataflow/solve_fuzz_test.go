package dataflow

import (
	"slices"
	"testing"

	"fits/internal/cfg"
)

// bits is a gen/kill bitset lattice: join is union, so the least fixpoint
// of any transfer of the form (in &^ kill) | gen is unique and every visit
// order must reach it.
type bits uint64

func (b *bits) Clone() bits { return *b }

func (b *bits) Join(o *bits) bool {
	old := *b
	*b |= *o
	return *b != old
}

// genKill is the per-block transfer of a fuzzed CFG.
type genKill struct{ gen, kill bits }

// fuzzCFG decodes a small CFG from fuzz bytes: up to 12 blocks, each with
// gen/kill sets and up to three successors drawn from the function's own
// blocks (self-loops included) or from addresses outside it. Blocks no edge
// reaches are left in place, and one byte may move the entry off every
// block.
func fuzzCFG(data []byte) (*cfg.Function, map[uint32]genKill) {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	addr := func(i int) uint32 { return 0x1000 + uint32(i)*0x10 }
	n := 1 + int(next())%12
	fn := &cfg.Function{Blocks: map[uint32]*cfg.BasicBlock{}, Entry: addr(0)}
	if next()%16 == 0 {
		fn.Entry = 0xdead0000
	}
	effects := map[uint32]genKill{}
	for i := 0; i < n; i++ {
		blk := &cfg.BasicBlock{Start: addr(i)}
		for s := int(next()) % 4; s > 0; s-- {
			t := next()
			if t%8 == 7 {
				blk.Succs = append(blk.Succs, 0xbeef0000+uint32(t)) // outside the function
			} else {
				blk.Succs = append(blk.Succs, addr(int(t)%n))
			}
		}
		g := bits(next())<<8 | bits(next())
		k := bits(next())<<8 | bits(next())
		effects[blk.Start] = genKill{gen: g, kill: k}
		fn.Blocks[blk.Start] = blk
		fn.Order = append(fn.Order, blk.Start)
	}
	return fn, effects
}

// fifoReference reaches the same fixpoint by chaotic iteration, the other
// textbook way: a FIFO worklist, a successor re-queued whenever its input
// grows, and a hard cap on pops.
func fifoReference(fn *cfg.Function, entry bits, transfer func(*cfg.BasicBlock, *bits)) (map[uint32]bits, bool) {
	states := map[uint32]bits{fn.Entry: entry}
	work := []uint32{fn.Entry}
	inWork := map[uint32]bool{fn.Entry: true}
	iters := 0
	for ; len(work) > 0 && iters < 4096; iters++ {
		b := work[0]
		work = work[1:]
		inWork[b] = false
		blk := fn.Blocks[b]
		if blk == nil {
			continue
		}
		out := states[b]
		transfer(blk, &out)
		for _, succ := range blk.Succs {
			if _, ok := fn.Blocks[succ]; !ok {
				continue
			}
			cur, ok := states[succ]
			if !ok {
				states[succ] = out
			} else if cur|out == cur {
				continue
			} else {
				states[succ] = cur | out
			}
			if !inWork[succ] {
				work = append(work, succ)
				inWork[succ] = true
			}
		}
	}
	if _, ok := fn.Blocks[fn.Entry]; !ok {
		delete(states, fn.Entry)
	}
	return states, len(work) == 0
}

// recursiveRPO is reverse postorder in its textbook recursive form.
func recursiveRPO(f *cfg.Function) []uint32 {
	var post []uint32
	visited := map[uint32]bool{}
	var dfs func(uint32)
	dfs = func(a uint32) {
		if visited[a] {
			return
		}
		visited[a] = true
		b, ok := f.Blocks[a]
		if !ok {
			return
		}
		for _, s := range b.Succs {
			dfs(s)
		}
		post = append(post, a)
	}
	dfs(f.Entry)
	slices.Reverse(post)
	return post
}

// FuzzForward checks the fixpoint solver against independent references:
// on random small CFGs with a gen/kill lattice, Forward's in-states and
// converged bit must match the FIFO reference, a lowered pass budget may only
// ever under-approximate, and ReversePostorder must match the recursive walk.
func FuzzForward(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{3, 1, 1, 1, 0, 1, 0, 0, 2, 0, 2, 0, 0, 4, 0, 0, 1, 1, 2, 0, 8, 0, 1})
	f.Add([]byte{5, 1, 2, 1, 2, 0, 3, 0, 0, 3, 2, 3, 0, 5, 0, 2, 7, 0, 0xf0, 0, 0x0f, 1, 4, 0, 0, 0, 1})
	f.Add([]byte{11, 2, 3, 0, 1, 15, 0xff, 0, 1, 0, 2, 2, 3, 9, 0x10, 0, 0, 0, 3, 4, 5, 6, 0, 0x20, 0, 0x10, 1, 0, 0, 0x40})
	f.Add([]byte{4, 0, 1, 0, 0, 0, 0, 0})
	// Block 0 loops on itself and falls into block 1, whose back edge
	// reaches block 0 after the self-loop already marked it dirty.
	f.Add([]byte{1, 1, 3, 0, 0, 1, 0x30, 0x30, 0x30, 0x30, 1, 0, 0x30, 0x31})
	f.Fuzz(func(t *testing.T, data []byte) {
		fn, effects := fuzzCFG(data)
		transfer := func(blk *cfg.BasicBlock, st *bits) {
			e := effects[blk.Start]
			*st = *st&^e.kill | e.gen
		}
		entry := bits(1) << 63

		if got, want := fn.ReversePostorder(), recursiveRPO(fn); !slices.Equal(got, want) {
			t.Fatalf("ReversePostorder = %x, recursive reference = %x", got, want)
		}

		want, wantConverged := fifoReference(fn, entry, transfer)
		sol := Forward(fn, entry, transfer)
		if sol.Converged != wantConverged {
			t.Fatalf("Converged = %v, reference %v", sol.Converged, wantConverged)
		}
		for _, b := range fn.Order {
			in := sol.In(b)
			w, reached := want[b]
			switch {
			case (in != nil) != reached:
				t.Fatalf("block %#x: reached = %v, reference %v", b, in != nil, reached)
			case in != nil && *in != w:
				t.Fatalf("block %#x: in = %#x, reference %#x", b, uint64(*in), uint64(w))
			}
		}

		// A truncated solve is a sound-but-incomplete snapshot: the first
		// sweep reaches every reachable block, and every input is contained
		// in the fixpoint's.
		budget := 1 + len(data)%3
		SetMaxPasses(t, budget)
		low := Forward(fn, entry, transfer)
		for _, b := range fn.Order {
			in := low.In(b)
			w, reached := want[b]
			switch {
			case (in != nil) != reached:
				t.Fatalf("budget %d, block %#x: reached = %v, reference %v", budget, b, in != nil, reached)
			case in != nil && *in&^w != 0:
				t.Fatalf("budget %d, block %#x: in = %#x exceeds the fixpoint %#x", budget, b, uint64(*in), uint64(w))
			case in != nil && low.Converged && *in != w:
				t.Fatalf("budget %d converged, block %#x: in = %#x, fixpoint %#x", budget, b, uint64(*in), uint64(w))
			}
		}
	})
}
