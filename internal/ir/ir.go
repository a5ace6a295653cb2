// Package ir defines the VEX-like intermediate representation all analyses
// operate on, and the lifter that translates decoded machine instructions
// into it.
//
// The statement grammar follows Table 2 of the paper exactly: t = GET(r),
// t = Binop(t, t|const), t = Load(t), PUT(r) = t|const, Store(t) = t, so the
// backtracking rules of the call-site analysis can be stated verbatim. Every
// operand is a temporary, a register or a constant, never a nested
// expression, so a statement is one fixed-size value and a function's IR is
// one statement array, as a pyvex IRSB is.
package ir

import (
	"fmt"

	"fits/internal/isa"
)

// Temp is a single-assignment temporary. Temporaries are local to the
// lifted instruction that writes them: each instruction numbers its own
// from zero.
type Temp uint8

func (t Temp) String() string { return fmt.Sprintf("t%d", int(t)) }

// ArgKind says what an operand is.
type ArgKind uint8

// Operand kinds. The zero Arg is no operand.
const (
	ArgNone ArgKind = iota
	ArgTmp
	ArgReg
	ArgConst
)

// Arg is a statement operand: a temporary, a guest register or a 32-bit
// constant, held inline.
type Arg struct {
	Kind ArgKind
	V    int32 // the temp, the register or the constant
}

// Tmp is the operand reading temporary t.
func Tmp(t Temp) Arg { return Arg{Kind: ArgTmp, V: int32(t)} }

// Reg is the operand reading register r.
func Reg(r isa.Reg) Arg { return Arg{Kind: ArgReg, V: int32(r)} }

// Const is the constant operand v.
func Const(v uint32) Arg { return Arg{Kind: ArgConst, V: int32(v)} }

// Temp returns the temporary a reads.
func (a Arg) Temp() Temp { return Temp(a.V) }

// Reg returns the register a reads.
func (a Arg) Reg() isa.Reg { return isa.Reg(a.V) }

func (a Arg) String() string {
	switch a.Kind {
	case ArgTmp:
		return a.Temp().String()
	case ArgReg:
		return a.Reg().String()
	case ArgConst:
		return fmt.Sprintf("0x%x", uint32(a.V))
	}
	return "-"
}

// BinOp is the operator of a Bin statement.
type BinOp uint8

// Binary operators.
const (
	Add BinOp = iota
	Sub
	Mul
	Div
	And
	Or
	Xor
	Shl
	Shr
	CmpEQ
	CmpNE
	CmpLT
	CmpGE
)

var binopNames = [...]string{
	Add: "Add", Sub: "Sub", Mul: "Mul", Div: "Div", And: "And", Or: "Or",
	Xor: "Xor", Shl: "Shl", Shr: "Shr", CmpEQ: "CmpEQ", CmpNE: "CmpNE",
	CmpLT: "CmpLT", CmpGE: "CmpGE",
}

func (o BinOp) String() string {
	if int(o) < len(binopNames) {
		return binopNames[o]
	}
	return fmt.Sprintf("BinOp(%d)", uint8(o))
}

// Fold evaluates the operator on two 32-bit words, the one definition of
// the IR's arithmetic every analysis folds constants with. Div and the
// ordering comparisons are signed; division by zero yields 0 (and
// MinInt32 / -1 wraps to MinInt32); shift counts are taken mod 32 and Shr
// is logical; comparisons yield 1 or 0. Unknown operators yield 0.
func (o BinOp) Fold(a, b uint32) uint32 {
	switch o {
	case Add:
		return a + b
	case Sub:
		return a - b
	case Mul:
		return a * b
	case Div:
		if b == 0 {
			return 0
		}
		return uint32(int32(a) / int32(b))
	case And:
		return a & b
	case Or:
		return a | b
	case Xor:
		return a ^ b
	case Shl:
		return a << (b & 31)
	case Shr:
		return a >> (b & 31)
	case CmpEQ:
		return b2u(a == b)
	case CmpNE:
		return b2u(a != b)
	case CmpLT:
		return b2u(int32(a) < int32(b))
	case CmpGE:
		return b2u(int32(a) >= int32(b))
	}
	return 0
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

// Kind is a statement's opcode.
type Kind uint8

// Statement kinds, with the operands each reads. Get, Bin and Load, the
// first three, write the temporary Dst; Put writes the register Dst.
const (
	Get   Kind = iota // t = GET(A), A a register
	Bin               // t = Op(A, B)
	Load              // t = Load(A), Size bytes
	Put               // PUT(Dst) = A
	Store             // Store(A) = B, Size bytes
	Exit              // if (A) goto B, B a constant
	Jump              // goto A: a constant, or a temp for a computed jump
	Call              // call A: a constant, or a temp for an indirect call
	Tramp             // call [got:A]: a PLT trampoline through GOT slot A
	Ret               // return from the current function
	Sys               // system primitive number A (terminal library behaviour)
)

// Stmt is one IR statement: an opcode, a destination and up to two
// operands, in 20 bytes.
type Stmt struct {
	Kind Kind
	Op   BinOp // Bin's operator
	Size uint8 // bytes a Load or Store accesses: 1 or isa.WordSize
	Dst  uint8 // the temp a Get, Bin or Load writes; the register a Put writes
	A, B Arg
}

// T returns the temporary a Get, Bin or Load writes.
func (s Stmt) T() Temp { return Temp(s.Dst) }

// R returns the register a Put writes.
func (s Stmt) R() isa.Reg { return isa.Reg(s.Dst) }

// Target returns the constant destination of an Exit, or of a Jump, Call
// or Tramp (its GOT slot) whose A is a constant.
func (s Stmt) Target() uint32 {
	if s.Kind == Exit {
		return uint32(s.B.V)
	}
	return uint32(s.A.V)
}

// Dynamic reports whether a Jump or Call goes through a computed address.
func (s Stmt) Dynamic() bool { return s.A.Kind == ArgTmp }

// Writes reports whether the statement writes its temporary Dst: it is a
// Get, Bin or Load.
func (s Stmt) Writes() bool { return s.Kind <= Load }

func (s Stmt) String() string {
	switch s.Kind {
	case Get:
		return fmt.Sprintf("%s = GET(%s)", s.T(), s.A)
	case Bin:
		return fmt.Sprintf("%s = %s(%s,%s)", s.T(), s.Op, s.A, s.B)
	case Load:
		return fmt.Sprintf("%s = Load%d(%s)", s.T(), int(s.Size)*8, s.A)
	case Put:
		return fmt.Sprintf("PUT(%s) = %s", s.R(), s.A)
	case Store:
		return fmt.Sprintf("Store%d(%s) = %s", int(s.Size)*8, s.A, s.B)
	case Exit:
		return fmt.Sprintf("if (%s) goto %s", s.A, s.B)
	case Jump:
		return fmt.Sprintf("goto %s", s.A)
	case Call:
		return fmt.Sprintf("call %s", s.A)
	case Tramp:
		return fmt.Sprintf("call [got:%s]", s.A)
	case Ret:
		return "ret"
	case Sys:
		return fmt.Sprintf("sys %d", s.A.V)
	}
	return fmt.Sprintf("Kind(%d)", uint8(s.Kind))
}

// Code is one function's lifted IR: the statements of its instructions in
// address order, in one array, and where each instruction's run of them
// starts. Instruction i's statements are Stmts[Starts[i]:Starts[i+1]], so
// Starts holds one entry more than there are instructions.
type Code struct {
	Stmts  []Stmt
	Starts []int32
}

// Instr returns instruction i's statements.
func (c *Code) Instr(i int) []Stmt { return c.Stmts[c.Starts[i]:c.Starts[i+1]] }
