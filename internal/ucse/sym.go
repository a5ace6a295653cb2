package ucse

// sym.go is the one symbolic machine of the repository. Four analyses run
// it: the resolver's path-exploring Engine and the Karonte-style engine
// (internal/karonte) run one SymState per path, and the precision passes
// (internal/alias, internal/pathcheck) run one over a single walk. They
// differ in one rule, which bytes a concrete load trusts. The precision
// passes trust only the read-only sections (text, rodata), because
// writable initial bytes need not still hold when the analyzed path runs;
// loads from writable memory instead return a per-address memoized
// unknown, so two reads of the same concrete location share one identity
// until something may have clobbered memory — exactly the property an
// interval solver over branch conditions needs to stay sound. The path
// explorers start from NewPathState, which trusts the whole initialized
// image, because dispatch tables and initialized globals live in .data.

import (
	"fmt"
	"maps"

	"fits/internal/binimg"
	"fits/internal/ir"
	"fits/internal/isa"
)

// SAlloc is the return value of a heap-allocation call, identified by its
// call-site address. Address expressions built from it classify as that
// heap object in the alias pass.
type SAlloc struct{ Site uint32 }

func (SAlloc) isSVal() {}

// The synthetic stack window SymState hands to SP, exported so consumers
// can classify addresses that fall inside it as stack slots.
const (
	FakeStackLo = 0xfe000000
	FakeStackHi = FakeStackLo + 1<<16
	FakeSP      = FakeStackLo + (FakeStackHi-FakeStackLo)/2
)

// SymState is a single-path symbolic machine state over the IR, owned by
// one analysis of one function.
type SymState struct {
	bin  *binimg.Binary
	Regs [isa.NumRegs]SVal
	// temps holds the current ir.Block's temporaries. The lifter writes at
	// most ir.MaxBlockTemps consecutive ones per block and reads only
	// those (ir.TestTempsAreBlockLocal), so T mod MaxBlockTemps never
	// collides within a block.
	temps [ir.MaxBlockTemps]SVal
	// mem tracks concrete-address stores made on this path; memUnknown
	// memoizes the unknown produced for each concrete address read before
	// any tracked store and not answered by the image. Both are allocated
	// on first write.
	mem        map[uint32]SVal
	memUnknown map[uint32]SVal
	nextID     int
	// trustWritable makes concrete loads read writable initialized
	// sections from the image too, not only text and rodata.
	trustWritable bool
}

// NewSymState returns a state at function entry: every register unknown
// except SP, which points into the synthetic stack window.
func NewSymState(bin *binimg.Binary) *SymState {
	s := &SymState{bin: bin}
	for r := 0; r < isa.NumRegs; r++ {
		s.Regs[r] = s.Fresh()
	}
	s.Regs[isa.SP] = SConst{V: FakeSP}
	return s
}

// NewPathState is NewSymState for a path explorer: its concrete loads read
// the whole initialized image, writable sections included.
func NewPathState(bin *binimg.Binary) *SymState {
	s := NewSymState(bin)
	s.trustWritable = true
	return s
}

// Clone forks the state for another path. The fork continues its own copy
// of the identity counter, so two forks may mint equal unknowns; nothing
// compares identities across paths.
func (s *SymState) Clone() *SymState {
	ns := *s
	ns.mem = maps.Clone(s.mem)
	ns.memUnknown = maps.Clone(s.memUnknown)
	return &ns
}

// Fresh mints an unknown with a new identity.
func (s *SymState) Fresh() SVal {
	s.nextID++
	return SUnknown{ID: s.nextID}
}

// simplify builds a binop value, folding constant operands and the additive
// identities that keep address expressions canonical.
func simplify(op ir.BinOp, l, r SVal) SVal {
	lc, lok := l.(SConst)
	rc, rok := r.(SConst)
	if lok && rok {
		return SConst{V: op.Fold(lc.V, rc.V)}
	}
	if (op == ir.Add || op == ir.Sub) && rok && rc.V == 0 {
		return l
	}
	if op == ir.Add && lok && lc.V == 0 {
		return r
	}
	return SBin{Op: op, L: l, R: r}
}

// Eval computes an IR expression in the current state.
func (s *SymState) Eval(x ir.Expr) SVal {
	switch x := x.(type) {
	case *ir.Const:
		return SConst{V: uint32(x.V)}
	case *ir.RdTmp:
		if v := s.temps[uint(x.T)%ir.MaxBlockTemps]; v != nil {
			return v
		}
		return s.Fresh()
	case *ir.Get:
		if v := s.Regs[x.R]; v != nil {
			return v
		}
		return s.Fresh()
	case *ir.Binop:
		return simplify(x.Op, s.Eval(x.L), s.Eval(x.R))
	case *ir.Load:
		addr := s.Eval(x.Addr)
		c, ok := addr.(SConst)
		if !ok {
			return SLoad{Addr: addr}
		}
		if v, ok := s.mem[c.V]; ok {
			return v
		}
		if s.trusts(c.V) {
			if x.Size == 1 {
				if b, ok := s.bin.ByteAt(c.V); ok {
					return SConst{V: uint32(b)}
				}
			} else if w, ok := s.bin.WordAt(c.V); ok {
				return SConst{V: w}
			}
		}
		if v, ok := s.memUnknown[c.V]; ok {
			return v
		}
		v := s.Fresh()
		if s.memUnknown == nil {
			s.memUnknown = map[uint32]SVal{}
		}
		s.memUnknown[c.V] = v
		return v
	}
	return s.Fresh()
}

// trusts reports whether a concrete load from addr may read the image.
func (s *SymState) trusts(addr uint32) bool {
	if s.trustWritable {
		return true
	}
	sec := s.bin.SectionOf(addr)
	return sec == "text" || sec == "rodata"
}

// Step applies one statement's state effects and reports whether the
// statement may have clobbered memory the state cannot track: a call (the
// callee can write through any pointer), a syscall, or a store through a
// symbolic address. Control statements (Exit/Jump/Ret) have no state
// effect here — callers handle control flow themselves.
func (s *SymState) Step(st ir.Stmt) (clobbered bool) {
	switch st := st.(type) {
	case *ir.WrTmp:
		s.temps[uint(st.T)%ir.MaxBlockTemps] = s.Eval(st.E)
	case *ir.Put:
		s.Regs[st.R] = s.Eval(st.E)
	case *ir.Store:
		addr := s.Eval(st.Addr)
		val := s.Eval(st.Val)
		c, ok := addr.(SConst)
		if !ok {
			return true
		}
		if s.mem == nil {
			s.mem = map[uint32]SVal{}
		}
		s.mem[c.V] = val
	case *ir.Call:
		for r := isa.Reg(0); r < 4; r++ {
			s.Regs[r] = s.Fresh()
		}
		s.Regs[isa.LR] = s.Fresh()
		return true
	case *ir.Sys:
		s.Regs[isa.R0] = s.Fresh()
		return true
	}
	return false
}

// SetTemp overrides temporary t, for a caller that models a statement's
// value itself.
func (s *SymState) SetTemp(t ir.Temp, v SVal) {
	s.temps[uint(t)%ir.MaxBlockTemps] = v
}

// HavocMemory forgets every tracked and memoized memory value; subsequent
// loads of the same addresses see fresh unknowns.
func (s *SymState) HavocMemory() {
	clear(s.mem)
	clear(s.memUnknown)
}

// HavocAll forgets registers and memory both, keeping only SP. Used when
// control flow re-enters a tracked region from an unmodeled edge.
func (s *SymState) HavocAll() {
	for r := 0; r < isa.NumRegs; r++ {
		s.Regs[r] = s.Fresh()
	}
	s.Regs[isa.SP] = SConst{V: FakeSP}
	s.HavocMemory()
}

// Render formats a symbolic value deterministically, for solver variable
// identity and refutation diagnostics.
func Render(v SVal) string {
	switch v := v.(type) {
	case SConst:
		return fmt.Sprintf("0x%x", v.V)
	case SUnknown:
		return fmt.Sprintf("u%d", v.ID)
	case SAlloc:
		return fmt.Sprintf("alloc@0x%x", v.Site)
	case SLoad:
		return "mem[" + Render(v.Addr) + "]"
	case SBin:
		return "(" + Render(v.L) + " " + v.Op.String() + " " + Render(v.R) + ")"
	}
	return "?"
}

// HasLoad reports whether v contains a symbolic-address load. Such values
// have no stable identity across memory clobbers, so the path solver must
// not constrain them.
func HasLoad(v SVal) bool {
	switch v := v.(type) {
	case SLoad:
		return true
	case SBin:
		return HasLoad(v.L) || HasLoad(v.R)
	}
	return false
}
