package ir

import (
	"fmt"

	"fits/internal/isa"
)

// Lifter translates machine instructions into one Code. Each instruction
// writes at most MaxBlockTemps temporaries, numbered from zero, and reads
// only the ones it wrote itself, which lets the analyses keep a fixed
// per-instruction temporary environment.
//
// Reserve sizes the statement and start arrays exactly for the instructions
// about to be lifted, so lifting a function costs two allocations and
// leaves no slack. The zero Lifter is ready to use.
type Lifter struct {
	code Code
	next Temp
}

// liftCount is what Lift emits for one instruction: its statements, and how
// many of them write a temporary.
type liftCount struct{ stmts, temps int }

// Lift's templates, counted. The table must agree with Lift exactly, which
// TestReserveIsExact checks for every opcode: a short count grows the
// statement array, a long one leaves slack in a cached model.
var (
	// ALU, load, store and branch instructions each lift to three
	// temp-writing statements and one Put, Store or Exit.
	threeTemps = liftCount{stmts: 4, temps: 3}

	liftCounts = [...]liftCount{
		isa.OpNop:   {},
		isa.OpMovi:  {stmts: 1},
		isa.OpMov:   {stmts: 2, temps: 1},
		isa.OpAdd:   threeTemps,
		isa.OpSub:   threeTemps,
		isa.OpMul:   threeTemps,
		isa.OpDiv:   threeTemps,
		isa.OpAnd:   threeTemps,
		isa.OpOr:    threeTemps,
		isa.OpXor:   threeTemps,
		isa.OpShl:   threeTemps,
		isa.OpShr:   threeTemps,
		isa.OpAddi:  {stmts: 3, temps: 2},
		isa.OpLdb:   threeTemps,
		isa.OpLdw:   threeTemps,
		isa.OpStb:   threeTemps,
		isa.OpStw:   threeTemps,
		isa.OpBeq:   threeTemps,
		isa.OpBne:   threeTemps,
		isa.OpBlt:   threeTemps,
		isa.OpBge:   threeTemps,
		isa.OpJmp:   {stmts: 1},
		isa.OpJr:    {stmts: 2, temps: 1},
		isa.OpCall:  {stmts: 2},
		isa.OpCallr: {stmts: 3, temps: 1},
		isa.OpRet:   {stmts: 1},
		isa.OpPush:  {stmts: 5, temps: 3},
		isa.OpPop:   {stmts: 5, temps: 3},
		isa.OpSys:   {stmts: 1},
		isa.OpTramp: {stmts: 2},
	}
)

// MaxBlockTemps is the most temporaries one lifted instruction writes: the
// largest temps count in liftCounts (the three-temp ALU, memory, branch and
// stack templates). TestTempsAreBlockLocal keeps the two equal.
const MaxBlockTemps = 3

// Reserve sizes the statement and start arrays for exactly the instructions
// in ins, so a caller that knows a function's instructions before lifting
// them (the CFG builder) allocates each once and keeps no slack. Lifting
// anything beyond ins grows the arrays.
func (l *Lifter) Reserve(ins []isa.Instr) {
	stmts, n := 0, 0
	for _, in := range ins {
		if int(in.Op) < len(liftCounts) { // Lift rejects the rest unlifted
			stmts += liftCounts[in.Op].stmts
			n++
		}
	}
	if len(l.code.Starts) == 0 {
		n++ // the first instruction's start
	}
	l.code.Stmts = reserve(l.code.Stmts, stmts)
	l.code.Starts = reserve(l.code.Starts, n)
}

// reserve returns s with room for exactly n more elements.
func reserve[T any](s []T, n int) []T {
	if cap(s)-len(s) >= n {
		return s
	}
	out := make([]T, len(s), len(s)+n)
	copy(out, s)
	return out
}

// Code returns what has been lifted so far.
func (l *Lifter) Code() Code { return l.code }

func (l *Lifter) emit(s Stmt) { l.code.Stmts = append(l.code.Stmts, s) }

// def emits s writing the next temporary and returns that temporary.
func (l *Lifter) def(s Stmt) Arg {
	s.Dst = uint8(l.next)
	l.next++
	l.emit(s)
	return Tmp(s.T())
}

// read loads a register into a fresh temporary.
func (l *Lifter) read(r isa.Reg) Arg { return l.def(Stmt{Kind: Get, A: Reg(r)}) }

func (l *Lifter) bin(op BinOp, a, b Arg) Arg { return l.def(Stmt{Kind: Bin, Op: op, A: a, B: b}) }

func (l *Lifter) put(r isa.Reg, a Arg) { l.emit(Stmt{Kind: Put, Dst: uint8(r), A: a}) }

// Instruction-to-IR operator tables, hoisted to package level so Lift does
// not materialize a fresh map per lifted instruction.
var binOpFor = map[isa.Op]BinOp{
	isa.OpAdd: Add, isa.OpSub: Sub, isa.OpMul: Mul, isa.OpDiv: Div,
	isa.OpAnd: And, isa.OpOr: Or, isa.OpXor: Xor, isa.OpShl: Shl,
	isa.OpShr: Shr,
}

var cmpOpFor = map[isa.Op]BinOp{
	isa.OpBeq: CmpEQ, isa.OpBne: CmpNE, isa.OpBlt: CmpLT, isa.OpBge: CmpGE,
}

// accessSize is the bytes a load or store opcode accesses.
func accessSize(op isa.Op) uint8 {
	if op == isa.OpLdb || op == isa.OpStb {
		return 1
	}
	return isa.WordSize
}

// Lift appends the statements of one instruction at the given address. The
// address is needed for the return address of calls.
func (l *Lifter) Lift(addr uint32, in isa.Instr) error {
	if int(in.Op) >= len(liftCounts) {
		return fmt.Errorf("ir: cannot lift %v at 0x%x", in.Op, addr)
	}
	if len(l.code.Starts) == 0 {
		l.code.Starts = append(l.code.Starts, 0)
	}
	l.next = 0

	switch in.Op {
	case isa.OpNop:
		// no statements

	case isa.OpMovi:
		l.put(in.Rd, Const(uint32(in.Imm)))

	case isa.OpMov:
		l.put(in.Rd, l.read(in.Rs1))

	case isa.OpAdd, isa.OpSub, isa.OpMul, isa.OpDiv, isa.OpAnd, isa.OpOr,
		isa.OpXor, isa.OpShl, isa.OpShr:
		x := l.read(in.Rs1)
		l.put(in.Rd, l.bin(binOpFor[in.Op], x, l.read(in.Rs2)))

	case isa.OpAddi:
		l.put(in.Rd, l.bin(Add, l.read(in.Rs1), Const(uint32(in.Imm))))

	case isa.OpLdb, isa.OpLdw:
		at := l.bin(Add, l.read(in.Rs1), Const(uint32(in.Imm)))
		l.put(in.Rd, l.def(Stmt{Kind: Load, Size: accessSize(in.Op), A: at}))

	case isa.OpStb, isa.OpStw:
		val := l.read(in.Rs2)
		at := l.bin(Add, l.read(in.Rs1), Const(uint32(in.Imm)))
		l.emit(Stmt{Kind: Store, Size: accessSize(in.Op), A: at, B: val})

	case isa.OpBeq, isa.OpBne, isa.OpBlt, isa.OpBge:
		x := l.read(in.Rs1)
		cond := l.bin(cmpOpFor[in.Op], x, l.read(in.Rs2))
		l.emit(Stmt{Kind: Exit, A: cond, B: Const(uint32(in.Imm))})

	case isa.OpJmp:
		l.emit(Stmt{Kind: Jump, A: Const(uint32(in.Imm))})

	case isa.OpJr:
		l.emit(Stmt{Kind: Jump, A: l.read(in.Rs1)})

	case isa.OpCall:
		l.put(isa.LR, Const(addr+isa.Width))
		l.emit(Stmt{Kind: Call, A: Const(uint32(in.Imm))})

	case isa.OpCallr:
		target := l.read(in.Rs1)
		l.put(isa.LR, Const(addr+isa.Width))
		l.emit(Stmt{Kind: Call, A: target})

	case isa.OpRet:
		l.emit(Stmt{Kind: Ret})

	case isa.OpPush:
		// SP -= 4; mem32[SP] = Rs1: Rs1 is read after the update, so
		// push sp stores the decremented SP.
		sp := l.bin(Sub, l.read(isa.SP), Const(isa.WordSize))
		l.put(isa.SP, sp)
		l.emit(Stmt{Kind: Store, Size: isa.WordSize, A: sp, B: l.read(in.Rs1)})

	case isa.OpPop:
		// Rd = mem32[SP]; SP += 4: the increment reads SP after Rd is
		// written, so pop sp ends at the loaded word plus 4.
		sp := l.read(isa.SP)
		val := l.def(Stmt{Kind: Load, Size: isa.WordSize, A: sp})
		l.put(in.Rd, val)
		if in.Rd == isa.SP {
			sp = val
		}
		l.put(isa.SP, l.bin(Add, sp, Const(isa.WordSize)))

	case isa.OpSys:
		l.emit(Stmt{Kind: Sys, A: Const(uint32(in.Imm))})

	case isa.OpTramp:
		l.emit(Stmt{Kind: Tramp, A: Const(uint32(in.Imm))})
		l.emit(Stmt{Kind: Ret})
	}
	l.code.Starts = append(l.code.Starts, int32(len(l.code.Stmts)))
	return nil
}
