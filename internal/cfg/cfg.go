// Package cfg recovers functions, control flow graphs and the call graph
// from stripped binaries.
//
// Discovery is recursive descent from seeds (the entry point, dynamic
// exports, and function pointers found in the data section), followed by a
// prologue scan for unreached code. Indirect call sites are resolved through
// a pluggable resolver, which the ucse package implements with
// under-constrained symbolic execution — the division of labor the paper
// describes for its CFG/CG construction stage.
package cfg

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"fits/internal/binimg"
	"fits/internal/ir"
	"fits/internal/isa"
)

// CallSite is one call instruction inside a function.
type CallSite struct {
	Caller   uint32 // entry address of the calling function
	Addr     uint32 // address of the call instruction
	Block    uint32 // block containing the call
	Target   uint32 // callee entry; 0 while unresolved
	Indirect bool
	// ImportName is set when the callee is a PLT stub (directly or after
	// resolution), identifying the library function called.
	ImportName string
}

// BasicBlock is a straight-line run of instructions with its lifted IR.
type BasicBlock struct {
	Start  uint32
	Instrs []isa.Instr
	IR     []*ir.Block
	Succs  []uint32
}

// End returns the first address past the block.
func (b *BasicBlock) End() uint32 {
	return b.Start + uint32(len(b.Instrs)*isa.Width)
}

// Loop is a natural loop identified from a back edge.
type Loop struct {
	Head uint32
	Body map[uint32]bool // block start addresses, including Head
}

// Function is a recovered function with CFG, loops and call sites.
type Function struct {
	Entry  uint32
	Name   string // debug name when available, else sub_<addr>
	Blocks map[uint32]*BasicBlock
	Order  []uint32 // block start addresses in ascending order
	Calls  []CallSite
	Loops  []Loop
	// Params is the estimated parameter count: argument registers read
	// before being written.
	Params int
	// ImportStub marks PLT trampolines; ImportName is the library function.
	ImportStub bool
	ImportName string
	// DynJumps lists the addresses of computed jumps (jump tables) in the
	// function; JumpTables holds their resolved intra-function targets.
	DynJumps   []uint32
	JumpTables map[uint32][]uint32
}

// NumBlocks returns the basic block count.
func (f *Function) NumBlocks() int { return len(f.Blocks) }

// HasLoop reports whether the function contains any natural loop.
func (f *Function) HasLoop() bool { return len(f.Loops) > 0 }

// Size returns the function's footprint in bytes (sum of block sizes).
func (f *Function) Size() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs) * isa.Width
	}
	return n
}

// BlocksInOrder returns blocks by ascending start address.
func (f *Function) BlocksInOrder() []*BasicBlock {
	out := make([]*BasicBlock, 0, len(f.Order))
	for _, a := range f.Order {
		out = append(out, f.Blocks[a])
	}
	return out
}

// OrderIndex returns the position in f.Order of the block starting at
// start, and whether there is one.
func (f *Function) OrderIndex(start uint32) (int, bool) {
	return slices.BinarySearch(f.Order, start)
}

// BlockAt returns the block whose instruction range covers addr, or nil.
func (f *Function) BlockAt(addr uint32) *BasicBlock {
	i, ok := f.OrderIndex(addr)
	if !ok {
		i-- // the last block starting below addr is the only candidate
	}
	if i < 0 {
		return nil
	}
	if b := f.Blocks[f.Order[i]]; addr < b.End() {
		return b
	}
	return nil
}

// Model is the whole-binary analysis result.
type Model struct {
	Bin   *binimg.Binary
	Funcs map[uint32]*Function
	// Callers maps a callee entry to every call site reaching it, the
	// reverse call graph used by interprocedural feature extraction.
	Callers map[uint32][]CallSite
}

// FuncAt returns the function with the given entry.
func (m *Model) FuncAt(entry uint32) (*Function, bool) {
	f, ok := m.Funcs[entry]
	return f, ok
}

// FuncsInOrder returns functions by ascending entry address.
func (m *Model) FuncsInOrder() []*Function {
	out := make([]*Function, 0, len(m.Funcs))
	for _, f := range m.Funcs {
		out = append(out, f)
	}
	slices.SortFunc(out, func(a, b *Function) int { return cmp.Compare(a.Entry, b.Entry) })
	return out
}

// CustomFuncs returns the non-stub functions, the candidate set from which
// intermediate taint sources are inferred.
func (m *Model) CustomFuncs() []*Function {
	var out []*Function
	for _, f := range m.FuncsInOrder() {
		if !f.ImportStub {
			out = append(out, f)
		}
	}
	return out
}

// Callees returns resolved callee entries of f in deterministic order.
func (m *Model) Callees(f *Function) []uint32 {
	seen := map[uint32]bool{}
	var out []uint32
	for _, cs := range f.Calls {
		if cs.Target != 0 && !seen[cs.Target] {
			seen[cs.Target] = true
			out = append(out, cs.Target)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (m *Model) String() string {
	return fmt.Sprintf("model(%s: %d funcs)", m.Bin.Name, len(m.Funcs))
}
