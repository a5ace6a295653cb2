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
// is also the taint engine's: every intraprocedural fixpoint in the system
// runs on it.
package dataflow

import "fits/internal/isa"

// ParamMask is a bit set of parameter indices (bit i = parameter i).
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

// AVal is the abstract value of the reaching-definition analysis: an
// optional shape (constant or SP-relative) plus the parameter taint carried.
type AVal struct {
	Kind  ValKind
	C     int32 // constant value or SP offset
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

// loc is an abstract storage location: a register, a stack slot keyed by its
// offset from the function-entry stack pointer, or a global address — encoded
// as a single ordered integer so states can be kept as sorted slices. The
// kind lives in the high bits, the value in the low 32.
type loc uint64

const (
	locKindReg  = uint64(0) << 32
	locKindSlot = uint64(1) << 32
	locKindGlob = uint64(2) << 32
)

func regLoc(r isa.Reg) loc    { return loc(locKindReg | uint64(uint8(r))) }
func slotLoc(off int32) loc   { return loc(locKindSlot | uint64(uint32(off))) }
func globLoc(addr uint32) loc { return loc(locKindGlob | uint64(addr)) }

// stateEntry is one (location, value) binding of an abstract state.
type stateEntry struct {
	loc loc
	val AVal
}

// absState maps locations to abstract values; missing locations are
// untainted Top. The representation is a slice of entries sorted by loc with
// copy-on-write sharing: clone is O(1) and marks both states shared, and the
// first mutation of a shared state copies the entries once. This replaces
// the map-per-edge cloning that dominated the pipeline's allocation profile.
type absState struct {
	entries []stateEntry
	shared  bool // entries are aliased by another state; copy before writing
}

// Clone returns a state observationally equal to s. Both states keep sharing
// the entry slice until one of them writes.
func (s *absState) Clone() absState {
	s.shared = true
	return absState{entries: s.entries, shared: true}
}

// own makes the entry slice exclusively s's, copying it if shared.
func (s *absState) own() {
	if s.shared {
		s.entries = append(make([]stateEntry, 0, len(s.entries)+8), s.entries...)
		s.shared = false
	}
}

// find returns the index of l in the sorted entries, or the insertion point
// with ok=false.
func (s *absState) find(l loc) (int, bool) {
	lo, hi := 0, len(s.entries)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.entries[mid].loc < l {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(s.entries) && s.entries[lo].loc == l
}

// get returns the value bound to l; missing locations read as untainted Top.
func (s *absState) get(l loc) AVal {
	if i, ok := s.find(l); ok {
		return s.entries[i].val
	}
	return AVal{Kind: KTop}
}

// set binds l to v, copying the shared entry slice first if needed.
func (s *absState) set(l loc, v AVal) {
	i, ok := s.find(l)
	if ok {
		if s.entries[i].val == v {
			return
		}
		s.own()
		s.entries[i].val = v
		return
	}
	s.own()
	s.entries = append(s.entries, stateEntry{})
	copy(s.entries[i+1:], s.entries[i:])
	s.entries[i] = stateEntry{loc: l, val: v}
}

// Join merges another state into s, reporting whether s changed: bindings
// present in both merge pointwise, bindings only in o are inserted, bindings
// only in s are kept. This is observationally the map-based union join.
func (s *absState) Join(o *absState) bool {
	if len(o.entries) == 0 {
		return false
	}
	// Fast path: probe for a change before copying anything.
	changed := false
	i, j := 0, 0
	for i < len(s.entries) && j < len(o.entries) {
		a, b := s.entries[i].loc, o.entries[j].loc
		switch {
		case a < b:
			i++
		case a > b:
			changed = true // o-only binding must be inserted
			j++
		default:
			if merge(s.entries[i].val, o.entries[j].val) != s.entries[i].val {
				changed = true
			}
			i++
			j++
		}
		if changed {
			break
		}
	}
	if !changed && j >= len(o.entries) {
		return false
	}

	// Slow path: build the merged slice into a fresh buffer.
	out := make([]stateEntry, 0, len(s.entries)+len(o.entries))
	i, j = 0, 0
	for i < len(s.entries) && j < len(o.entries) {
		a, b := s.entries[i], o.entries[j]
		switch {
		case a.loc < b.loc:
			out = append(out, a)
			i++
		case a.loc > b.loc:
			out = append(out, b)
			j++
		default:
			out = append(out, stateEntry{loc: a.loc, val: merge(a.val, b.val)})
			i++
			j++
		}
	}
	out = append(out, s.entries[i:]...)
	out = append(out, o.entries[j:]...)
	s.entries = out
	s.shared = false
	return true
}
