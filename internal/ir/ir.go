// Package ir defines the VEX-like intermediate representation all analyses
// operate on, and the lifter that translates decoded machine instructions
// into it.
//
// The expression grammar follows Table 2 of the paper exactly: PUT(r) = t,
// t = GET(r), t = Binop(t, t|const), t = Load(t), Store(t) = t, so the
// backtracking rules of the call-site analysis can be stated verbatim.
package ir

import (
	"fmt"

	"fits/internal/isa"
)

// Temp is a single-assignment temporary introduced by the lifter.
type Temp int

func (t Temp) String() string { return fmt.Sprintf("t%d", int(t)) }

// Expr is an IR expression: Const, RdTmp, Get, Load or Binop. Expressions
// are held as pointers (only *Const etc. implement Expr): the lifter carves
// nodes out of typed arenas, so building a function costs a handful of chunk
// allocations instead of one interface box per node. Nodes are immutable
// after construction — several expressions may share one node (small
// constants, register reads), and cached models share nodes across analyses.
type Expr interface {
	isExpr()
	String() string
}

// Const is an integer literal or absolute address.
type Const struct{ V int64 }

// RdTmp reads a temporary.
type RdTmp struct{ T Temp }

// Get reads a guest register.
type Get struct{ R isa.Reg }

// Load reads memory at the address given by an expression.
type Load struct {
	Addr Expr
	Size int // bytes: 1 or isa.WordSize
}

// BinOp is the operator of a Binop expression.
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

// Binop combines two expressions.
type Binop struct {
	Op   BinOp
	L, R Expr
}

func (*Const) isExpr() {}
func (*RdTmp) isExpr() {}
func (*Get) isExpr()   {}
func (*Load) isExpr()  {}
func (*Binop) isExpr() {}

func (c *Const) String() string { return fmt.Sprintf("0x%x", uint64(c.V)) }
func (r *RdTmp) String() string { return r.T.String() }
func (g *Get) String() string   { return fmt.Sprintf("GET(%s)", g.R) }
func (l *Load) String() string  { return fmt.Sprintf("Load%d(%s)", l.Size*8, l.Addr) }
func (b *Binop) String() string { return fmt.Sprintf("%s(%s,%s)", b.Op, b.L, b.R) }

// Stmt is an IR statement. Like Expr, statements are pointer-implemented
// arena nodes; see the Expr comment for the ownership rules.
type Stmt interface {
	isStmt()
	String() string
}

// WrTmp assigns an expression to a fresh temporary: t = expr.
type WrTmp struct {
	T Temp
	E Expr
}

// Put writes a guest register: PUT(r) = expr.
type Put struct {
	R isa.Reg
	E Expr
}

// Store writes memory: Store(addr) = val.
type Store struct {
	Addr Expr
	Val  Expr
	Size int
}

// Exit is a conditional transfer: if cond goto Target.
type Exit struct {
	Cond   Expr
	Target uint32
}

// Jump is an unconditional transfer. Target may be nil for computed jumps,
// in which case Dyn holds the address expression.
type Jump struct {
	Target uint32
	Dyn    Expr
}

// CallKind distinguishes direct, indirect and trampoline calls.
type CallKind uint8

// Call kinds.
const (
	CallDirect CallKind = iota
	CallIndirect
	CallTramp
)

// Call transfers to a function and returns. Target is set for direct calls;
// Dyn holds the address expression for indirect calls; GOT holds the GOT
// slot address for trampolines.
type Call struct {
	Kind   CallKind
	Target uint32
	Dyn    Expr
	GOT    uint32
}

// Ret returns from the current function.
type Ret struct{}

// Sys invokes a system primitive (terminal library behaviour).
type Sys struct{ Num int32 }

func (*WrTmp) isStmt() {}
func (*Put) isStmt()   {}
func (*Store) isStmt() {}
func (*Exit) isStmt()  {}
func (*Jump) isStmt()  {}
func (*Call) isStmt()  {}
func (*Ret) isStmt()   {}
func (*Sys) isStmt()   {}

func (s *WrTmp) String() string { return fmt.Sprintf("%s = %s", s.T, s.E) }
func (s *Put) String() string   { return fmt.Sprintf("PUT(%s) = %s", s.R, s.E) }
func (s *Store) String() string {
	return fmt.Sprintf("Store%d(%s) = %s", s.Size*8, s.Addr, s.Val)
}
func (s *Exit) String() string { return fmt.Sprintf("if (%s) goto 0x%x", s.Cond, s.Target) }
func (s *Jump) String() string {
	if s.Dyn != nil {
		return fmt.Sprintf("goto %s", s.Dyn)
	}
	return fmt.Sprintf("goto 0x%x", s.Target)
}
func (s *Call) String() string {
	switch s.Kind {
	case CallIndirect:
		return fmt.Sprintf("call %s", s.Dyn)
	case CallTramp:
		return fmt.Sprintf("call [got:0x%x]", s.GOT)
	default:
		return fmt.Sprintf("call 0x%x", s.Target)
	}
}
func (*Ret) String() string   { return "ret" }
func (s *Sys) String() string { return fmt.Sprintf("sys %d", s.Num) }

// Block is the lifted form of a single machine instruction: a short list of
// statements. Its temporaries are its own: it writes at most MaxBlockTemps
// consecutively numbered ones and reads no other.
type Block struct {
	Addr  uint32
	Raw   isa.Instr
	Stmts []Stmt
}
