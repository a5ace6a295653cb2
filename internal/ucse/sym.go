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
	// temps holds the current instruction's temporaries. The lifter writes
	// at most ir.MaxBlockTemps of them per instruction and reads only
	// those (ir.TestTempsAreBlockLocal), so T mod MaxBlockTemps never
	// collides within an instruction.
	temps [ir.MaxBlockTemps]SVal
	// mem tracks concrete-address stores made on this path, one cell per
	// store, keyed by its first byte; cells never overlap. memUnknown
	// memoizes the unknown produced for each concrete address and width
	// read before any tracked store and not answered by the image. Both are
	// allocated on first write.
	mem        map[uint32]memCell
	memUnknown map[memKey]SVal
	nextID     int
	// trustWritable makes concrete loads read writable initialized
	// sections from the image too, not only text and rodata.
	trustWritable bool
}

// memCell is one tracked store: its value and the bytes it wrote. A byte
// cell's value is already masked to the byte.
type memCell struct {
	val  SVal
	size uint8
}

// memKey names the unknown read by a load of size bytes at addr.
type memKey struct {
	addr uint32
	size uint8
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

// Arg returns an operand's value in the current state.
func (s *SymState) Arg(a ir.Arg) SVal {
	var v SVal
	switch a.Kind {
	case ir.ArgConst:
		return SConst{V: uint32(a.V)}
	case ir.ArgTmp:
		v = s.temps[uint(a.V)%ir.MaxBlockTemps]
	case ir.ArgReg:
		v = s.Regs[a.Reg()]
	}
	if v == nil {
		return s.Fresh()
	}
	return v
}

// Value computes what a Get, Bin or Load statement writes to its temporary.
func (s *SymState) Value(st *ir.Stmt) SVal {
	switch st.Kind {
	case ir.Get:
		return s.Arg(st.A)
	case ir.Bin:
		return simplify(st.Op, s.Arg(st.A), s.Arg(st.B))
	case ir.Load:
		return s.Load(s.Arg(st.A), int(st.Size))
	}
	return s.Fresh()
}

// Load reads size bytes at addr: a symbolic address reads SLoad.
func (s *SymState) Load(addr SVal, size int) SVal {
	if c, ok := addr.(SConst); ok {
		return s.load(c.V, size)
	}
	return SLoad{Addr: addr}
}

// load reads size bytes at the concrete address a: the value of a tracked
// store of exactly that width there, else the bytes the tracked stores and
// the image pin down, else an unknown. A load that tracked stores cover
// only in part, or with a symbolic value, reads a fresh unknown, never a
// stale image byte.
func (s *SymState) load(a uint32, size int) SVal {
	if c, ok := s.mem[a]; ok && int(c.size) == size {
		return c.val
	}
	if v, stored := s.loadStored(a, size); stored {
		return v
	}
	if s.trusts(a) {
		if size == 1 {
			if b, ok := s.bin.ByteAt(a); ok {
				return SConst{V: uint32(b)}
			}
		} else if w, ok := s.bin.WordAt(a); ok {
			return SConst{V: w}
		}
	}
	k := memKey{addr: a, size: uint8(size)}
	if v, ok := s.memUnknown[k]; ok {
		return v
	}
	v := s.Fresh()
	if s.memUnknown == nil {
		s.memUnknown = map[memKey]SVal{}
	}
	s.memUnknown[k] = v
	return v
}

// loadStored is load when tracked stores cover some of the size bytes at a
// (stored is false when they cover none): the constant the stored and
// trusted image bytes make up, or a fresh unknown when any byte is not a
// known constant.
func (s *SymState) loadStored(a uint32, size int) (v SVal, stored bool) {
	var w uint32
	known := true
	for i := size - 1; i >= 0; i-- {
		x := a + uint32(i)
		b, hit, ok := s.storedByte(x)
		if !hit && s.trusts(x) {
			b, ok = s.bin.ByteAt(x)
		}
		stored = stored || hit
		known = known && ok
		w = w<<8 | uint32(b)
	}
	if !stored {
		return nil, false
	}
	if !known {
		return s.Fresh(), true
	}
	return SConst{V: w}, true
}

// storedByte returns the byte at a as the tracked stores left it: hit
// reports that a cell covers a, ok that its value is a known constant.
func (s *SymState) storedByte(a uint32) (b byte, hit, ok bool) {
	for off := uint32(0); off < isa.WordSize; off++ {
		c, found := s.mem[a-off]
		if !found || off >= uint32(c.size) {
			continue
		}
		if k, isConst := c.val.(SConst); isConst {
			return byte(k.V >> (8 * off)), true, true
		}
		return 0, true, false
	}
	return 0, false, false
}

// store records a concrete store of size bytes at a. A byte store keeps
// the value's low byte. Older cells the new one overlaps keep only the
// bytes outside it, as byte cells: their constant bytes, or a fresh unknown
// for each byte of a symbolic value.
func (s *SymState) store(a uint32, v SVal, size int) {
	if size == 1 {
		v = simplify(ir.And, v, SConst{V: 0xff})
	}
	if s.mem == nil {
		s.mem = map[uint32]memCell{}
	}
	// A cell overlapping [a, end) starts at most a word's width before a.
	end := a + uint32(size)
	for b := a - (isa.WordSize - 1); b != end; b++ {
		s.split(b, a, end)
	}
	s.mem[a] = memCell{val: v, size: uint8(size)}
}

// split removes the cell at b if it overlaps [lo, hi), re-adding the bytes
// it wrote outside that range as byte cells.
func (s *SymState) split(b, lo, hi uint32) {
	c, ok := s.mem[b]
	if !ok || b+uint32(c.size) <= lo {
		return
	}
	delete(s.mem, b)
	k, isConst := c.val.(SConst)
	for i := uint32(0); i < uint32(c.size); i++ {
		if x := b + i; x < lo || x >= hi {
			if isConst {
				s.mem[x] = memCell{val: SConst{V: k.V >> (8 * i) & 0xff}, size: 1}
			} else {
				s.mem[x] = memCell{val: s.Fresh(), size: 1}
			}
		}
	}
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
func (s *SymState) Step(st *ir.Stmt) (clobbered bool) {
	switch st.Kind {
	case ir.Get, ir.Bin, ir.Load:
		s.temps[uint(st.Dst)%ir.MaxBlockTemps] = s.Value(st)
	case ir.Put:
		s.Regs[st.R()] = s.Arg(st.A)
	case ir.Store:
		addr := s.Arg(st.A)
		val := s.Arg(st.B)
		c, ok := addr.(SConst)
		if !ok {
			return true
		}
		s.store(c.V, val, int(st.Size))
	case ir.Call, ir.Tramp:
		for r := isa.Reg(0); r < 4; r++ {
			s.Regs[r] = s.Fresh()
		}
		s.Regs[isa.LR] = s.Fresh()
		return true
	case ir.Sys:
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
