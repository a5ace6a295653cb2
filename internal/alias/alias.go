// Package alias computes bounded, flow-sensitive points-to facts over the
// IR of one function. The taint engine's value-level propagation drops any
// store whose address it cannot pin to a stack slot or a constant global —
// data laundered through a computed pointer (table[i] = val; p = table[j])
// silently escapes tracking. This pass re-evaluates exactly those address
// expressions with the UCSE symbolic machinery, resolves each one to an
// abstract location — a stack-frame window, a global-region window, or a
// heap allocation site — and hands the facts to the taint engine so a
// tainted store and a later load of an overlapping location connect.
//
// The analysis is deliberately cheap and explicitly bounded: one linear
// pass over the function in block order, a single symbolic state (no path
// forking), and a per-function fact budget. When the budget trips, the
// result is marked Truncated with no facts at all, degrading to the taint
// engine's previous behavior — alias precision is additive, never a
// soundness trade.
package alias

import (
	"sort"

	"fits/internal/binimg"
	"fits/internal/cfg"
	"fits/internal/ir"
	"fits/internal/isa"
	"fits/internal/ucse"
)

// LocKind classifies an abstract location.
type LocKind uint8

// Abstract location kinds.
const (
	// Stack is a window of the current function's synthetic stack frame.
	Stack LocKind = iota
	// Global is a window of a writable data/bss region.
	Global
	// Heap is the object returned by one allocation call site.
	Heap
)

func (k LocKind) String() string {
	switch k {
	case Stack:
		return "stack"
	case Global:
		return "global"
	case Heap:
		return "heap"
	}
	return "loc"
}

// Span is the window width in bytes for Stack and Global locations. It
// matches the taint engine's tainted-object span: a store anywhere in a
// window taints the whole window.
const Span = 64

// Loc is one abstract location. Base is the resolved concrete component of
// the address for Stack and Global locations (fake-stack or section
// address), and the allocation call-site address for Heap.
type Loc struct {
	Kind LocKind
	Base uint32
}

// Overlaps reports whether two locations may denote overlapping memory.
func (l Loc) Overlaps(o Loc) bool {
	if l.Kind != o.Kind {
		return false
	}
	if l.Kind == Heap {
		return l.Base == o.Base
	}
	return l.Base-o.Base < Span || o.Base-l.Base < Span
}

// MaxFacts bounds the per-function fact count. A function dense enough in
// unresolved memory traffic to trip it gets no facts and a Truncated mark
// instead of a partial, order-dependent subset.
const MaxFacts = 96

// Facts is the per-function result: for every load and store instruction
// whose address carried a symbolic residue, the abstract locations it may
// touch, keyed by instruction address.
type Facts struct {
	// Truncated is set when the fact budget tripped; both maps are then
	// empty and the consumer falls back to pre-alias behavior.
	Truncated bool
	Loads     map[uint32][]Loc
	Stores    map[uint32][]Loc
}

// allocators are the import names whose return value roots a heap object.
var allocators = map[string]bool{
	"malloc":  true,
	"calloc":  true,
	"realloc": true,
	"strdup":  true,
}

// Analyze walks fn once in ascending block order with a single symbolic
// state and resolves every symbolic-residue load/store address it can.
// Calls havoc the caller-saved registers (and allocator calls root a fresh
// heap object in R0); tracked memory survives calls, which keeps the facts
// may-facts rather than must-facts.
func Analyze(bin *binimg.Binary, fn *cfg.Function) *Facts {
	f := &Facts{Loads: map[uint32][]Loc{}, Stores: map[uint32][]Loc{}}
	if fn == nil || fn.ImportStub {
		return f
	}
	alloc := map[uint32]bool{}
	for _, cs := range fn.Calls {
		if allocators[cs.ImportName] {
			alloc[cs.Addr] = true
		}
	}
	st := ucse.NewSymState(bin)
	count := 0
	add := func(m map[uint32][]Loc, instr uint32, l Loc) {
		for _, have := range m[instr] {
			if have == l {
				return
			}
		}
		m[instr] = append(m[instr], l)
		count++
	}
	for _, ba := range fn.Order {
		blk := fn.Blocks[ba]
		if blk == nil {
			continue
		}
		for _, irb := range blk.IR {
			for _, s := range irb.Stmts {
				switch s := s.(type) {
				case *ir.WrTmp:
					for _, ld := range loadsIn(s.E) {
						if l, ok := classify(bin, st.Eval(ld.Addr)); ok {
							add(f.Loads, irb.Addr, l)
						}
					}
				case *ir.Put:
					for _, ld := range loadsIn(s.E) {
						if l, ok := classify(bin, st.Eval(ld.Addr)); ok {
							add(f.Loads, irb.Addr, l)
						}
					}
				case *ir.Store:
					if l, ok := classify(bin, st.Eval(s.Addr)); ok {
						add(f.Stores, irb.Addr, l)
					}
				}
				wasAlloc := false
				if _, ok := s.(*ir.Call); ok {
					wasAlloc = alloc[irb.Addr]
				}
				st.Step(s)
				if wasAlloc {
					st.Regs[isa.R0] = ucse.SAlloc{Site: irb.Addr}
				}
			}
		}
		if count > MaxFacts {
			return &Facts{Truncated: true, Loads: map[uint32][]Loc{}, Stores: map[uint32][]Loc{}}
		}
	}
	for _, m := range []map[uint32][]Loc{f.Loads, f.Stores} {
		for _, locs := range m {
			sort.Slice(locs, func(i, j int) bool {
				if locs[i].Kind != locs[j].Kind {
					return locs[i].Kind < locs[j].Kind
				}
				return locs[i].Base < locs[j].Base
			})
		}
	}
	return f
}

// loadsIn collects the load subexpressions of x in evaluation order.
func loadsIn(x ir.Expr) []*ir.Load {
	switch x := x.(type) {
	case *ir.Load:
		return append(loadsIn(x.Addr), x)
	case *ir.Binop:
		return append(loadsIn(x.L), loadsIn(x.R)...)
	}
	return nil
}

// classify resolves a symbolic address to an abstract location. Only
// addresses with a symbolic residue produce facts — fully concrete
// addresses are already handled precisely by the taint engine — and only
// when the concrete component lands in a known region.
func classify(bin *binimg.Binary, v ucse.SVal) (Loc, bool) {
	base, site, hasAlloc, hasSym := ucse.SplitAddr(v)
	if !hasSym && !hasAlloc {
		return Loc{}, false
	}
	if hasAlloc {
		return Loc{Kind: Heap, Base: site}, true
	}
	if base >= ucse.FakeStackLo && base < ucse.FakeStackHi {
		return Loc{Kind: Stack, Base: base}, true
	}
	switch bin.SectionOf(base) {
	case "data", "bss":
		return Loc{Kind: Global, Base: base}, true
	}
	return Loc{}, false
}
