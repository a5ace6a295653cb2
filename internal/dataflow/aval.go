// Package dataflow implements the two program analyses behind the flow
// features of the behavioral feature vector:
//
//   - a reaching-definition style forward dataflow over the IR that tracks
//     which locations (registers and stack slots) carry values derived from
//     the function's parameters — the data dependency graph (DDG) of the
//     paper's Algorithm 1 — answering whether parameters control loops,
//     control branches, or flow into anchor-function arguments; and
//
//   - call-site analysis with the backtracking rules of the paper's Table 2,
//     classifying arguments at every call site of a function as string
//     constants by chasing registers back to constants and resolving them
//     against the rodata/data sections (including GOT-style indirection).
//
// Forward, the reverse-postorder fixpoint solver under the first analysis,
// is also the taint engine's, and so is its abstract state: State (an
// inline register file plus a copy-on-write memory slice) and Temps (the
// temporaries of one lifted instruction) are the one lattice every
// intraprocedural fixpoint in the system runs on, and Interp is the one
// interpreter of the IR over them.
package dataflow

import (
	"slices"

	"fits/internal/ir"
	"fits/internal/isa"
)

// ParamMask is a bit set of parameter indices (bit i = parameter i). The
// taint engine uses it as a single taint bit.
type ParamMask uint8

// Has reports whether any bit is set.
func (m ParamMask) Has() bool { return m != 0 }

// ValKind classifies an abstract value.
type ValKind uint8

// Abstract value kinds: a known constant, a stack-pointer-relative address,
// or an arbitrary value.
const (
	KTop ValKind = iota
	KConst
	KSPRel
)

// AVal is the abstract value shared by reachdef and taint: an optional shape
// (constant or SP-relative) plus the taint carried. The zero AVal is
// untainted Top. C comes first so the struct packs into eight bytes.
type AVal struct {
	C     int32 // constant value or SP offset
	Kind  ValKind
	Taint ParamMask
}

func top(t ParamMask) AVal { return AVal{Kind: KTop, Taint: t} }

// merge joins two abstract values at a control-flow merge point.
func merge(a, b AVal) AVal {
	t := a.Taint | b.Taint
	if a.Kind == b.Kind && a.C == b.C {
		return AVal{Kind: a.Kind, C: a.C, Taint: t}
	}
	return top(t)
}

// Binop is the abstract arithmetic of one IR Binop: constants fold, an
// SP-relative address plus or minus a constant stays SP-relative, anything
// else is Top; the result carries both operands' taint.
func Binop(op ir.BinOp, l, r AVal) AVal {
	t := l.Taint | r.Taint
	switch {
	case l.Kind == KConst && r.Kind == KConst:
		return AVal{Kind: KConst, C: int32(op.Fold(uint32(l.C), uint32(r.C))), Taint: t}
	case op == ir.Add && l.Kind == KSPRel && r.Kind == KConst:
		return AVal{Kind: KSPRel, C: l.C + r.C, Taint: t}
	case op == ir.Add && l.Kind == KConst && r.Kind == KSPRel:
		return AVal{Kind: KSPRel, C: r.C + l.C, Taint: t}
	case op == ir.Sub && l.Kind == KSPRel && r.Kind == KConst:
		return AVal{Kind: KSPRel, C: l.C - r.C, Taint: t}
	}
	return top(t)
}

// Loc is an abstract storage location: a register, a stack slot keyed by its
// offset from the function-entry stack pointer, or a global address — encoded
// as a single ordered integer so memory can be kept as a sorted slice. The
// kind lives in the high bits, the value in the low 32.
type Loc uint64

const (
	locKindReg  = uint64(0) << 32
	locKindSlot = uint64(1) << 32
	locKindGlob = uint64(2) << 32
)

// RegLoc names register r.
func RegLoc(r isa.Reg) Loc { return Loc(locKindReg | uint64(uint8(r))) }

// SlotLoc names the stack slot at off from the function-entry SP.
func SlotLoc(off int32) Loc { return Loc(locKindSlot | uint64(uint32(off))) }

// GlobLoc names the global word at addr.
func GlobLoc(addr uint32) Loc { return Loc(locKindGlob | uint64(addr)) }

// memEntry is one (stack slot or global, value) binding of a State.
type memEntry struct {
	loc Loc
	val AVal
}

// State maps locations to abstract values; unbound locations read as
// untainted Top. Registers live inline: regs holds every register's value
// (the zero AVal while unbound) and bit r of bound says whether register r
// is bound, which keeps the map semantics of Join (an unbound location takes
// the other side's value; a bound one merges with it). Stack slots and
// globals live in mem, sorted by Loc, with copy-on-write sharing: Clone
// marks both states shared and the first write copies the slice once. A
// function that writes no memory location therefore clones, joins and
// transfers without touching the heap.
type State struct {
	regs   [isa.NumRegs]AVal
	mem    []memEntry
	bound  uint16
	shared bool // mem is aliased by another state; copy before writing
}

// Clone returns a state observationally equal to s: the register file is
// copied, the memory slice stays shared until one of the two writes.
func (s *State) Clone() State {
	if s.mem != nil {
		s.shared = true
	}
	return *s
}

// own makes the memory slice exclusively s's, copying it if shared.
func (s *State) own() {
	if s.shared {
		s.mem = append(make([]memEntry, 0, len(s.mem)+8), s.mem...)
		s.shared = false
	}
}

// find returns the index of l in the sorted memory slice, or the insertion
// point with ok=false.
func (s *State) find(l Loc) (int, bool) {
	lo, hi := 0, len(s.mem)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.mem[mid].loc < l {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(s.mem) && s.mem[lo].loc == l
}

// Get returns the value bound to l; unbound locations read as untainted Top.
func (s *State) Get(l Loc) AVal {
	if l < Loc(locKindSlot) {
		return s.regs[l]
	}
	if i, ok := s.find(l); ok {
		return s.mem[i].val
	}
	return AVal{}
}

// Set binds l to v, copying a shared memory slice first if needed.
func (s *State) Set(l Loc, v AVal) {
	if l < Loc(locKindSlot) {
		s.regs[l] = v
		s.bound |= 1 << l
		return
	}
	i, ok := s.find(l)
	if ok {
		if s.mem[i].val == v {
			return
		}
		s.own()
		s.mem[i].val = v
		return
	}
	s.own()
	if len(s.mem) == cap(s.mem) {
		s.mem = slices.Grow(s.mem, 8) // a frame's slots arrive one by one
	}
	s.mem = append(s.mem, memEntry{})
	copy(s.mem[i+1:], s.mem[i:])
	s.mem[i] = memEntry{loc: l, val: v}
}

// Call applies a call's effect on the registers: the argument registers and
// LR are clobbered, and the return value inherits the arguments' taint
// (data returned by callees such as anchors derives from what was passed
// in).
func (s *State) Call() {
	var t ParamMask
	for r := isa.Reg(0); r < 4; r++ {
		t |= s.regs[r].Taint
		s.Set(RegLoc(r), AVal{})
	}
	s.Set(RegLoc(isa.R0), top(t))
	s.Set(RegLoc(isa.LR), AVal{})
}

// Join merges another state into s, reporting whether s changed: bindings
// present in both merge pointwise, bindings only in o are inserted, bindings
// only in s are kept. This is observationally the map-based union join.
// Registers merge in place.
func (s *State) Join(o *State) bool {
	changed := false
	for r := range s.regs {
		if o.bound&(1<<r) == 0 {
			continue
		}
		if s.bound&(1<<r) == 0 {
			s.regs[r] = o.regs[r]
			changed = true
		} else if nv := merge(s.regs[r], o.regs[r]); nv != s.regs[r] {
			s.regs[r] = nv
			changed = true
		}
	}
	s.bound |= o.bound
	if s.joinMem(o) {
		changed = true
	}
	return changed
}

// joinMem is Join over the memory slices.
func (s *State) joinMem(o *State) bool {
	if len(o.mem) == 0 {
		return false
	}
	// Fast path: probe for a change before copying anything.
	changed := false
	i, j := 0, 0
	for i < len(s.mem) && j < len(o.mem) {
		a, b := s.mem[i].loc, o.mem[j].loc
		switch {
		case a < b:
			i++
		case a > b:
			changed = true // o-only binding must be inserted
			j++
		default:
			if merge(s.mem[i].val, o.mem[j].val) != s.mem[i].val {
				changed = true
			}
			i++
			j++
		}
		if changed {
			break
		}
	}
	if !changed && j >= len(o.mem) {
		return false
	}

	// Slow path: build the merged slice into a fresh buffer.
	out := make([]memEntry, 0, len(s.mem)+len(o.mem))
	i, j = 0, 0
	for i < len(s.mem) && j < len(o.mem) {
		a, b := s.mem[i], o.mem[j]
		switch {
		case a.loc < b.loc:
			out = append(out, a)
			i++
		case a.loc > b.loc:
			out = append(out, b)
			j++
		default:
			out = append(out, memEntry{loc: a.loc, val: merge(a.val, b.val)})
			i++
			j++
		}
	}
	out = append(out, s.mem[i:]...)
	out = append(out, o.mem[j:]...)
	s.mem = out
	s.shared = false
	return true
}

// Temps is the temporary environment of one lifted instruction. The lifter
// writes at most ir.MaxBlockTemps temporaries per ir.Block, numbered
// consecutively, and reads each only later in the same ir.Block (pinned by
// ir.TestTempsAreBlockLocal), so a fixed array indexed by t - base, reset at
// every ir.Block, replaces a function-wide environment. Reads of temporaries
// not written since the last Reset are untainted Top with no expression.
type Temps struct {
	base  ir.Temp
	n     int
	vals  [ir.MaxBlockTemps]AVal
	exprs [ir.MaxBlockTemps]ir.Expr
}

// Reset empties the environment; call it at the start of every ir.Block.
func (t *Temps) Reset() { t.n = 0 }

// Set records that tmp = e evaluated to v. The first write after Reset fixes
// the base; a write that does not extend the consecutive run is dropped.
func (t *Temps) Set(tmp ir.Temp, e ir.Expr, v AVal) {
	if t.n == 0 {
		t.base = tmp
	}
	if t.n < len(t.vals) && tmp == t.base+ir.Temp(t.n) {
		t.vals[t.n], t.exprs[t.n] = v, e
		t.n++
	}
}

// Get returns tmp's value and defining expression.
func (t *Temps) Get(tmp ir.Temp) (AVal, ir.Expr) {
	if i := tmp - t.base; i >= 0 && int(i) < t.n {
		return t.vals[i], t.exprs[i]
	}
	return AVal{}, nil
}
