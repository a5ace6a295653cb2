package ir

import (
	"fmt"

	"fits/internal/isa"
)

// Lifter translates machine instructions into IR blocks. Temporaries are
// numbered per lifter, so a whole function lifted by one Lifter never reuses
// a number; each Block writes at most MaxBlockTemps of them, consecutively,
// and reads only the ones it wrote itself, which lets the dataflow analyses
// keep a fixed per-instruction temporary environment.
//
// Blocks, statements, and IR nodes are carved out of arenas owned by the
// lifter. Reserve sizes every arena exactly for the instructions about to be
// lifted, so lifting a function costs one allocation per arena it uses and
// leaves no slack. Chunks are append-only and never reallocated (a fresh
// chunk starts before one could grow), so returned pointers and subslices
// stay valid for the lifter's lifetime. Register reads, Ret, and small
// constants resolve to shared immutable package-level nodes and allocate
// nothing at all.
type Lifter struct {
	next   Temp
	blocks []Block
	stmts  []Stmt

	wrtmps arena[WrTmp]
	puts   arena[Put]
	stores arena[Store]
	exits  arena[Exit]
	jumps  arena[Jump]
	calls  arena[Call]
	syss   arena[Sys]
	consts arena[Const]
	rdtmps arena[RdTmp]
	binops arena[Binop]
	loads  arena[Load]
	gets   arena[Get]
}

// plainChunk sizes the chunk a lifter starts when an arena has no reserved
// room left: only an un-reserved lifter, or one whose reservation was
// mis-counted, ever gets here.
const plainChunk = 128

// arena hands out stable pointers to values of one node type. Existing
// elements are never moved, so previously returned pointers stay valid.
type arena[T any] struct{ chunk []T }

// reserve makes room for exactly n more nodes in one chunk. An arena that
// will not be used (n == 0) allocates nothing.
func (a *arena[T]) reserve(n int) {
	if cap(a.chunk)-len(a.chunk) < n {
		a.chunk = make([]T, 0, n)
	}
}

func (a *arena[T]) new(v T) *T {
	if len(a.chunk) == cap(a.chunk) {
		a.chunk = make([]T, 0, plainChunk)
	}
	a.chunk = append(a.chunk, v)
	return &a.chunk[len(a.chunk)-1]
}

// liftCount is what Lift emits for one instruction, arena by arena.
type liftCount struct {
	stmts, wrtmps, rdtmps, puts, binops, loads, stores, exits, jumps, calls, syss int
}

func (c *liftCount) add(d liftCount) {
	c.stmts += d.stmts
	c.wrtmps += d.wrtmps
	c.rdtmps += d.rdtmps
	c.puts += d.puts
	c.binops += d.binops
	c.loads += d.loads
	c.stores += d.stores
	c.exits += d.exits
	c.jumps += d.jumps
	c.calls += d.calls
	c.syss += d.syss
}

// Lift's templates, counted. A register read is a WrTmp of a shared Get plus
// an RdTmp; a Binop is a WrTmp plus an RdTmp around the Binop node. The
// table must agree with Lift exactly, which TestReserveIsExact checks for
// every opcode: a short count falls back to a plain chunk, a long one leaves
// slack in a cached model.
var (
	aluCount    = liftCount{stmts: 4, wrtmps: 3, rdtmps: 3, binops: 1, puts: 1}
	loadCount   = liftCount{stmts: 4, wrtmps: 3, rdtmps: 3, binops: 1, loads: 1, puts: 1}
	storeCount  = liftCount{stmts: 4, wrtmps: 3, rdtmps: 3, binops: 1, stores: 1}
	branchCount = liftCount{stmts: 4, wrtmps: 3, rdtmps: 3, binops: 1, exits: 1}

	liftCounts = [...]liftCount{
		isa.OpNop:   {},
		isa.OpMovi:  {stmts: 1, puts: 1},
		isa.OpMov:   {stmts: 2, wrtmps: 1, rdtmps: 1, puts: 1},
		isa.OpAdd:   aluCount,
		isa.OpSub:   aluCount,
		isa.OpMul:   aluCount,
		isa.OpDiv:   aluCount,
		isa.OpAnd:   aluCount,
		isa.OpOr:    aluCount,
		isa.OpXor:   aluCount,
		isa.OpShl:   aluCount,
		isa.OpShr:   aluCount,
		isa.OpAddi:  {stmts: 3, wrtmps: 2, rdtmps: 2, binops: 1, puts: 1},
		isa.OpLdb:   loadCount,
		isa.OpLdw:   loadCount,
		isa.OpStb:   storeCount,
		isa.OpStw:   storeCount,
		isa.OpBeq:   branchCount,
		isa.OpBne:   branchCount,
		isa.OpBlt:   branchCount,
		isa.OpBge:   branchCount,
		isa.OpJmp:   {stmts: 1, jumps: 1},
		isa.OpJr:    {stmts: 2, wrtmps: 1, rdtmps: 1, jumps: 1},
		isa.OpCall:  {stmts: 2, puts: 1, calls: 1},
		isa.OpCallr: {stmts: 3, wrtmps: 1, rdtmps: 1, puts: 1, calls: 1},
		isa.OpRet:   {stmts: 1},
		isa.OpPush:  {stmts: 5, wrtmps: 3, rdtmps: 3, binops: 1, puts: 1, stores: 1},
		isa.OpPop:   {stmts: 5, wrtmps: 3, rdtmps: 3, binops: 1, loads: 1, puts: 2},
		isa.OpSys:   {stmts: 1, syss: 1},
		isa.OpTramp: {stmts: 2, calls: 1},
	}
)

// MaxBlockTemps is the most temporaries one lifted Block writes: the largest
// wrtmps count in liftCounts (the three-temp ALU, memory, branch and stack
// templates). TestTempsAreBlockLocal keeps the two equal.
const MaxBlockTemps = 3

// constNodes is how many Const nodes lifting in allocates: an immediate
// operand outside the shared small range, or a call's return address. Return
// addresses are counted as allocated, which holds for every text section
// (each lies above the small range).
func constNodes(in isa.Instr) int {
	switch in.Op {
	case isa.OpMovi, isa.OpAddi, isa.OpLdb, isa.OpLdw, isa.OpStb, isa.OpStw:
		if !isSmallConst(int64(in.Imm)) {
			return 1
		}
	case isa.OpCall, isa.OpCallr:
		return 1
	}
	return 0
}

// Shared immutable nodes: one Get per guest register, one Ret, and the small
// non-negative constants (section offsets, word sizes, return-address bases
// all hit this range). Nothing may ever write through these pointers.
var (
	getNodes    [isa.NumRegs]Get
	retNode     Ret
	smallConsts [256]Const
)

func init() {
	for r := range getNodes {
		getNodes[r] = Get{R: isa.Reg(r)}
	}
	for v := range smallConsts {
		smallConsts[v] = Const{V: int64(v)}
	}
}

// GetExpr returns the canonical node reading register r (shared for
// in-range registers, so it never allocates on the decode-validated path).
func (l *Lifter) GetExpr(r isa.Reg) *Get {
	if r >= 0 && int(r) < len(getNodes) {
		return &getNodes[r]
	}
	return l.gets.new(Get{R: r})
}

func isSmallConst(v int64) bool { return v >= 0 && v < int64(len(smallConsts)) }

func (l *Lifter) cnst(v int64) *Const {
	if isSmallConst(v) {
		return &smallConsts[v]
	}
	return l.consts.new(Const{V: v})
}

// Reserve sizes the block and statement arrays and every node arena for
// exactly the instructions in ins, so a caller that knows a function's
// instructions before lifting them (the CFG builder) pays one allocation per
// arena and keeps no slack. Lifting anything beyond ins falls back to plain
// chunks.
func (l *Lifter) Reserve(ins []isa.Instr) {
	var c liftCount
	consts, blocks := 0, 0
	for _, in := range ins {
		if int(in.Op) >= len(liftCounts) {
			continue // Lift rejects it without emitting anything
		}
		c.add(liftCounts[in.Op])
		consts += constNodes(in)
		blocks++
	}
	if cap(l.blocks)-len(l.blocks) < blocks {
		l.blocks = make([]Block, 0, blocks)
	}
	if cap(l.stmts)-len(l.stmts) < c.stmts {
		l.stmts = make([]Stmt, 0, c.stmts)
	}
	l.wrtmps.reserve(c.wrtmps)
	l.rdtmps.reserve(c.rdtmps)
	l.puts.reserve(c.puts)
	l.binops.reserve(c.binops)
	l.loads.reserve(c.loads)
	l.stores.reserve(c.stores)
	l.exits.reserve(c.exits)
	l.jumps.reserve(c.jumps)
	l.calls.reserve(c.calls)
	l.syss.reserve(c.syss)
	l.consts.reserve(consts)
}

// NewLifter returns a lifter with a fresh temporary namespace.
func NewLifter() *Lifter { return &Lifter{} }

func (l *Lifter) tmp() Temp {
	t := l.next
	l.next++
	return t
}

// NumTemps returns the number of temporaries allocated so far.
func (l *Lifter) NumTemps() int { return int(l.next) }

// Instruction-to-IR operator tables, hoisted to package level so Lift does
// not materialize a fresh map per lifted instruction (these two literals
// dominated the lift path's allocation profile).
var binOpFor = map[isa.Op]BinOp{
	isa.OpAdd: Add, isa.OpSub: Sub, isa.OpMul: Mul, isa.OpDiv: Div,
	isa.OpAnd: And, isa.OpOr: Or, isa.OpXor: Xor, isa.OpShl: Shl,
	isa.OpShr: Shr,
}

var cmpOpFor = map[isa.Op]BinOp{
	isa.OpBeq: CmpEQ, isa.OpBne: CmpNE, isa.OpBlt: CmpLT, isa.OpBge: CmpGE,
}

func (l *Lifter) emit(s Stmt) { l.stmts = append(l.stmts, s) }

// read loads a register into a fresh temporary and returns it.
func (l *Lifter) read(r isa.Reg) Expr {
	t := l.tmp()
	l.emit(l.wrtmps.new(WrTmp{T: t, E: l.GetExpr(r)}))
	return l.rdtmps.new(RdTmp{T: t})
}

func (l *Lifter) bin(op BinOp, x, y Expr) Expr {
	t := l.tmp()
	l.emit(l.wrtmps.new(WrTmp{T: t, E: l.binops.new(Binop{Op: op, L: x, R: y})}))
	return l.rdtmps.new(RdTmp{T: t})
}

// Lift translates one instruction at the given address. The address is
// needed to resolve fall-through targets of conditional branches.
func (l *Lifter) Lift(addr uint32, in isa.Instr) (*Block, error) {
	if int(in.Op) >= len(liftCounts) {
		return nil, fmt.Errorf("ir: cannot lift %v at 0x%x", in.Op, addr)
	}
	// A block's statements are one subslice, so they must fit the current
	// statement chunk.
	if len(l.blocks) == cap(l.blocks) {
		l.blocks = make([]Block, 0, plainChunk)
	}
	if cap(l.stmts)-len(l.stmts) < liftCounts[in.Op].stmts {
		l.stmts = make([]Stmt, 0, plainChunk)
	}
	l.blocks = append(l.blocks, Block{Addr: addr, Raw: in})
	b := &l.blocks[len(l.blocks)-1]
	start := len(l.stmts)

	switch in.Op {
	case isa.OpNop:
		// no statements

	case isa.OpMovi:
		l.emit(l.puts.new(Put{R: in.Rd, E: l.cnst(int64(in.Imm))}))

	case isa.OpMov:
		l.emit(l.puts.new(Put{R: in.Rd, E: l.read(in.Rs1)}))

	case isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpDiv, isa.OpAnd, isa.OpOr,
		isa.OpXor, isa.OpShl, isa.OpShr:
		l.emit(l.puts.new(Put{R: in.Rd, E: l.bin(binOpFor[in.Op], l.read(in.Rs1), l.read(in.Rs2))}))

	case isa.OpAddi:
		l.emit(l.puts.new(Put{R: in.Rd, E: l.bin(Add, l.read(in.Rs1), l.cnst(int64(in.Imm)))}))

	case isa.OpLdb, isa.OpLdw:
		size := 1
		if in.Op == isa.OpLdw {
			size = isa.WordSize
		}
		addrE := l.bin(Add, l.read(in.Rs1), l.cnst(int64(in.Imm)))
		t := l.tmp()
		l.emit(l.wrtmps.new(WrTmp{T: t, E: l.loads.new(Load{Addr: addrE, Size: size})}))
		l.emit(l.puts.new(Put{R: in.Rd, E: l.rdtmps.new(RdTmp{T: t})}))

	case isa.OpStb, isa.OpStw:
		size := 1
		if in.Op == isa.OpStw {
			size = isa.WordSize
		}
		val := l.read(in.Rs2)
		addrE := l.bin(Add, l.read(in.Rs1), l.cnst(int64(in.Imm)))
		l.emit(l.stores.new(Store{Addr: addrE, Val: val, Size: size}))

	case isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge:
		cond := l.bin(cmpOpFor[in.Op], l.read(in.Rs1), l.read(in.Rs2))
		l.emit(l.exits.new(Exit{Cond: cond, Target: uint32(in.Imm)}))

	case isa.OpJmp:
		l.emit(l.jumps.new(Jump{Target: uint32(in.Imm)}))

	case isa.OpJr:
		l.emit(l.jumps.new(Jump{Dyn: l.read(in.Rs1)}))

	case isa.OpCall:
		l.emit(l.puts.new(Put{R: isa.LR, E: l.cnst(int64(addr) + isa.Width)}))
		l.emit(l.calls.new(Call{Kind: CallDirect, Target: uint32(in.Imm)}))

	case isa.OpCallr:
		target := l.read(in.Rs1)
		l.emit(l.puts.new(Put{R: isa.LR, E: l.cnst(int64(addr) + isa.Width)}))
		l.emit(l.calls.new(Call{Kind: CallIndirect, Dyn: target}))

	case isa.OpRet:
		l.emit(&retNode)

	case isa.OpPush:
		val := l.read(in.Rs1)
		sp := l.bin(Sub, l.read(isa.SP), l.cnst(isa.WordSize))
		l.emit(l.puts.new(Put{R: isa.SP, E: sp}))
		l.emit(l.stores.new(Store{Addr: sp, Val: val, Size: isa.WordSize}))

	case isa.OpPop:
		sp := l.read(isa.SP)
		t := l.tmp()
		l.emit(l.wrtmps.new(WrTmp{T: t, E: l.loads.new(Load{Addr: sp, Size: isa.WordSize})}))
		l.emit(l.puts.new(Put{R: in.Rd, E: l.rdtmps.new(RdTmp{T: t})}))
		l.emit(l.puts.new(Put{R: isa.SP, E: l.bin(Add, sp, l.cnst(isa.WordSize))}))

	case isa.OpSys:
		l.emit(l.syss.new(Sys{Num: in.Imm}))

	case isa.OpTramp:
		l.emit(l.calls.new(Call{Kind: CallTramp, GOT: uint32(in.Imm)}))
		l.emit(&retNode)

	}
	if end := len(l.stmts); end > start {
		b.Stmts = l.stmts[start:end:end]
	}
	return b, nil
}

// LiftAll lifts a contiguous run of instructions starting at base, reserving
// for exactly them first.
func (l *Lifter) LiftAll(base uint32, ins []isa.Instr) ([]*Block, error) {
	l.Reserve(ins)
	out := make([]*Block, 0, len(ins))
	for i, in := range ins {
		b, err := l.Lift(base+uint32(i*isa.Width), in)
		if err != nil {
			return out, err
		}
		out = append(out, b)
	}
	return out, nil
}
