// Package isa defines the instruction set used by all binaries in the
// synthetic firmware corpus, together with per-architecture binary encodings.
//
// The instruction set is a small fixed-width RISC: 16 general-purpose
// registers, 8-byte instructions, load/store architecture. Three
// "architectures" encode the same abstract instructions with different byte
// layouts and opcode numberings, standing in for the ARM, AArch64 and MIPS
// firmware of the paper's dataset: the analysis pipeline must carry a decoder
// per architecture exactly as a real firmware analyzer must.
package isa

import "fmt"

// Reg is a register number. R0..R3 carry arguments and R0 the return value;
// SP is the stack pointer, LR the link register, AT an assembler scratch.
type Reg uint8

// Register assignments of the calling convention.
const (
	R0 Reg = iota
	R1
	R2
	R3
	R4
	R5
	R6
	R7
	R8
	R9
	R10
	R11
	GP      // global pointer, reserved
	SP      // stack pointer
	LR      // link register
	AT      // assembler temporary
	NumRegs = 16
)

func (r Reg) String() string {
	switch r {
	case GP:
		return "gp"
	case SP:
		return "sp"
	case LR:
		return "lr"
	case AT:
		return "at"
	default:
		return fmt.Sprintf("r%d", int(r))
	}
}

// Op is an abstract operation, independent of architecture encoding.
type Op uint8

// Operations. Control flow uses absolute addresses in Imm.
const (
	OpNop   Op = iota
	OpMovi     // Rd = Imm
	OpMov      // Rd = Rs1
	OpAdd      // Rd = Rs1 + Rs2
	OpSub      // Rd = Rs1 - Rs2
	OpMul      // Rd = Rs1 * Rs2
	OpDiv      // Rd = Rs1 / Rs2 (0 if divisor 0)
	OpAnd      // Rd = Rs1 & Rs2
	OpOr       // Rd = Rs1 | Rs2
	OpXor      // Rd = Rs1 ^ Rs2
	OpShl      // Rd = Rs1 << (Rs2 & 31)
	OpShr      // Rd = Rs1 >> (Rs2 & 31), logical
	OpAddi     // Rd = Rs1 + Imm
	OpLdb      // Rd = mem8[Rs1 + Imm]
	OpLdw      // Rd = mem32[Rs1 + Imm]
	OpStb      // mem8[Rs1 + Imm] = Rs2
	OpStw      // mem32[Rs1 + Imm] = Rs2
	OpBeq      // if Rs1 == Rs2 goto Imm
	OpBne      // if Rs1 != Rs2 goto Imm
	OpBlt      // if Rs1 <  Rs2 goto Imm (signed)
	OpBge      // if Rs1 >= Rs2 goto Imm (signed)
	OpJmp      // goto Imm
	OpJr       // goto Rs1 (jump tables)
	OpCall     // LR = next; goto Imm
	OpCallr    // LR = next; goto Rs1 (function pointers)
	OpRet      // goto LR
	OpPush     // SP -= 4; mem32[SP] = Rs1
	OpPop      // Rd = mem32[SP]; SP += 4
	OpSys      // system/library primitive, number in Imm
	OpTramp    // PLT trampoline: goto mem32[Imm] (GOT slot)
	numOps
)

var opNames = [...]string{
	OpNop: "nop", OpMovi: "movi", OpMov: "mov", OpAdd: "add", OpSub: "sub",
	OpMul: "mul", OpDiv: "div", OpAnd: "and", OpOr: "or", OpXor: "xor",
	OpShl: "shl", OpShr: "shr", OpAddi: "addi", OpLdb: "ldb", OpLdw: "ldw",
	OpStb: "stb", OpStw: "stw", OpBeq: "beq", OpBne: "bne", OpBlt: "blt",
	OpBge: "bge", OpJmp: "jmp", OpJr: "jr", OpCall: "call", OpCallr: "callr",
	OpRet: "ret", OpPush: "push", OpPop: "pop", OpSys: "sys", OpTramp: "tramp",
}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// Valid reports whether o is a defined operation.
func (o Op) Valid() bool { return o < numOps }

// Width is the fixed encoded size of every instruction, in bytes.
const Width = 8

// WordSize is the machine word and pointer size in bytes.
const WordSize = 4

// Instr is one decoded instruction. Imm holds absolute addresses for control
// flow, displacements for memory operations, and literals for OpMovi/OpAddi.
type Instr struct {
	Op       Op
	Rd       Reg
	Rs1, Rs2 Reg
	Imm      int32
}

func (in Instr) String() string {
	switch in.Op {
	case OpNop, OpRet:
		return in.Op.String()
	case OpMovi:
		return fmt.Sprintf("movi %s, %d", in.Rd, in.Imm)
	case OpMov:
		return fmt.Sprintf("mov %s, %s", in.Rd, in.Rs1)
	case OpAddi:
		return fmt.Sprintf("addi %s, %s, %d", in.Rd, in.Rs1, in.Imm)
	case OpLdb, OpLdw:
		return fmt.Sprintf("%s %s, [%s%+d]", in.Op, in.Rd, in.Rs1, in.Imm)
	case OpStb, OpStw:
		return fmt.Sprintf("%s [%s%+d], %s", in.Op, in.Rs1, in.Imm, in.Rs2)
	case OpBeq, OpBne, OpBlt, OpBge:
		return fmt.Sprintf("%s %s, %s, 0x%x", in.Op, in.Rs1, in.Rs2, uint32(in.Imm))
	case OpJmp, OpCall:
		return fmt.Sprintf("%s 0x%x", in.Op, uint32(in.Imm))
	case OpJr, OpCallr, OpPush:
		return fmt.Sprintf("%s %s", in.Op, in.Rs1)
	case OpPop:
		return fmt.Sprintf("pop %s", in.Rd)
	case OpSys:
		return fmt.Sprintf("sys %d", in.Imm)
	case OpTramp:
		return fmt.Sprintf("tramp [0x%x]", uint32(in.Imm))
	default:
		return fmt.Sprintf("%s %s, %s, %s, %d", in.Op, in.Rd, in.Rs1, in.Rs2, in.Imm)
	}
}

// IsBranch reports whether the instruction is a conditional branch.
func (in Instr) IsBranch() bool {
	switch in.Op {
	case OpBeq, OpBne, OpBlt, OpBge:
		return true
	}
	return false
}

// IsCall reports whether the instruction transfers control to a function.
func (in Instr) IsCall() bool { return in.Op == OpCall || in.Op == OpCallr }

// EndsBlock reports whether the instruction terminates a basic block.
func (in Instr) EndsBlock() bool {
	switch in.Op {
	case OpBeq, OpBne, OpBlt, OpBge, OpJmp, OpJr, OpRet, OpTramp:
		return true
	}
	return false
}
