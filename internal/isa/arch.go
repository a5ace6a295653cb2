package isa

import (
	"encoding/binary"
	"fmt"
)

// Arch identifies one of the three supported architecture encodings.
type Arch uint8

// Supported architectures. They stand in for the ARM, AArch64 and MIPS
// firmware of the paper's dataset.
const (
	ArchARM   Arch = iota + 1 // little-endian, identity opcode map
	ArchAARCH                 // little-endian, rotated opcode map, swapped fields
	ArchMIPS                  // big-endian, XOR-scrambled opcode map
)

func (a Arch) String() string {
	switch a {
	case ArchARM:
		return "arm"
	case ArchAARCH:
		return "aarch64"
	case ArchMIPS:
		return "mips"
	default:
		return fmt.Sprintf("arch(%d)", uint8(a))
	}
}

// Valid reports whether a is a known architecture.
func (a Arch) Valid() bool { return a >= ArchARM && a <= ArchMIPS }

// Base returns the conventional load address for text sections of the
// architecture, mirroring the distinct image bases seen across real firmware.
func (a Arch) Base() uint32 {
	switch a {
	case ArchMIPS:
		return 0x400000
	case ArchAARCH:
		return 0x20000
	default:
		return 0x10000
	}
}

// opcode scrambles an abstract Op into the architecture's opcode byte.
func (a Arch) opcode(op Op) uint8 {
	switch a {
	case ArchAARCH:
		return uint8(op) + 0x20
	case ArchMIPS:
		return uint8(op) ^ 0x5a
	default:
		return uint8(op)
	}
}

// unopcode inverts opcode. The boolean is false for undecodable bytes.
func (a Arch) unopcode(b uint8) (Op, bool) {
	var op Op
	switch a {
	case ArchAARCH:
		if b < 0x20 {
			return 0, false
		}
		op = Op(b - 0x20)
	case ArchMIPS:
		op = Op(b ^ 0x5a)
	default:
		op = Op(b)
	}
	return op, op.Valid()
}

// Encode writes the architecture encoding of in into dst, which must be at
// least Width bytes.
func (a Arch) Encode(in Instr, dst []byte) {
	_ = dst[Width-1]
	var bo binary.ByteOrder = binary.LittleEndian
	if a == ArchMIPS {
		bo = binary.BigEndian
	}
	if a == ArchAARCH {
		// AArch64 flavor stores the immediate first.
		bo.PutUint32(dst[0:4], uint32(in.Imm))
		dst[4] = a.opcode(in.Op)
		dst[5] = uint8(in.Rd)
		dst[6] = uint8(in.Rs1)
		dst[7] = uint8(in.Rs2)
		return
	}
	dst[0] = a.opcode(in.Op)
	dst[1] = uint8(in.Rd)
	dst[2] = uint8(in.Rs1)
	dst[3] = uint8(in.Rs2)
	bo.PutUint32(dst[4:8], uint32(in.Imm))
}

// Decode decodes one instruction from src. It reports an error for undefined
// opcodes or out-of-range registers, as a disassembler must when walking
// stripped code.
func (a Arch) Decode(src []byte) (Instr, error) {
	if len(src) < Width {
		return Instr{}, fmt.Errorf("isa: truncated instruction: %d bytes", len(src))
	}
	var bo binary.ByteOrder = binary.LittleEndian
	if a == ArchMIPS {
		bo = binary.BigEndian
	}
	var in Instr
	var opByte uint8
	if a == ArchAARCH {
		in.Imm = int32(bo.Uint32(src[0:4]))
		opByte = src[4]
		in.Rd = Reg(src[5])
		in.Rs1 = Reg(src[6])
		in.Rs2 = Reg(src[7])
	} else {
		opByte = src[0]
		in.Rd = Reg(src[1])
		in.Rs1 = Reg(src[2])
		in.Rs2 = Reg(src[3])
		in.Imm = int32(bo.Uint32(src[4:8]))
	}
	op, ok := a.unopcode(opByte)
	if !ok {
		return Instr{}, fmt.Errorf("isa: %s: undefined opcode %#02x", a, opByte)
	}
	in.Op = op
	if in.Rd >= NumRegs || in.Rs1 >= NumRegs || in.Rs2 >= NumRegs {
		return Instr{}, fmt.Errorf("isa: %s: register out of range in %#02x", a, opByte)
	}
	return in, nil
}

// EncodeAll encodes a sequence of instructions back to back.
func (a Arch) EncodeAll(ins []Instr) []byte {
	out := make([]byte, len(ins)*Width)
	for i, in := range ins {
		a.Encode(in, out[i*Width:])
	}
	return out
}
