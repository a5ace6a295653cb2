package isa

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestRegString(t *testing.T) {
	cases := map[Reg]string{R0: "r0", R11: "r11", GP: "gp", SP: "sp", LR: "lr", AT: "at"}
	for r, want := range cases {
		if got := r.String(); got != want {
			t.Errorf("Reg(%d).String() = %q, want %q", r, got, want)
		}
	}
}

func TestOpStringAndValid(t *testing.T) {
	if OpMovi.String() != "movi" {
		t.Errorf("OpMovi.String() = %q", OpMovi.String())
	}
	if !OpTramp.Valid() {
		t.Error("OpTramp should be valid")
	}
	if Op(200).Valid() {
		t.Error("Op(200) should be invalid")
	}
	if !strings.Contains(Op(200).String(), "200") {
		t.Errorf("invalid op string: %q", Op(200).String())
	}
}

func TestArchProperties(t *testing.T) {
	for _, a := range []Arch{ArchARM, ArchAARCH, ArchMIPS} {
		if !a.Valid() {
			t.Errorf("%v should be valid", a)
		}
		if a.Base() == 0 {
			t.Errorf("%v base is zero", a)
		}
	}
	if Arch(0).Valid() || Arch(9).Valid() {
		t.Error("invalid arch reported valid")
	}
	if ArchARM.Base() == ArchMIPS.Base() {
		t.Error("arm and mips should have distinct bases")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	ins := []Instr{
		{Op: OpNop},
		{Op: OpMovi, Rd: R3, Imm: -42},
		{Op: OpAdd, Rd: R0, Rs1: R1, Rs2: R2},
		{Op: OpLdw, Rd: R4, Rs1: SP, Imm: 16},
		{Op: OpStb, Rs1: R5, Rs2: R6, Imm: -8},
		{Op: OpBeq, Rs1: R0, Rs2: R1, Imm: 0x10040},
		{Op: OpCall, Imm: 0x7fffffff},
		{Op: OpTramp, Imm: 0x20000},
		{Op: OpRet},
	}
	for _, a := range []Arch{ArchARM, ArchAARCH, ArchMIPS} {
		for _, in := range ins {
			var buf [Width]byte
			a.Encode(in, buf[:])
			got, err := a.Decode(buf[:])
			if err != nil {
				t.Fatalf("%v decode %v: %v", a, in, err)
			}
			if got != in {
				t.Errorf("%v round trip: got %v, want %v", a, got, in)
			}
		}
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, err := ArchARM.Decode([]byte{1, 2, 3}); err == nil {
		t.Error("expected error for truncated input")
	}
	// Undefined opcode for ARM (identity map): a large byte.
	bad := [Width]byte{0: 0xff}
	if _, err := ArchARM.Decode(bad[:]); err == nil {
		t.Error("expected error for undefined opcode")
	}
	// Register out of range.
	var buf [Width]byte
	ArchARM.Encode(Instr{Op: OpMov, Rd: R0, Rs1: R1}, buf[:])
	buf[1] = 99
	if _, err := ArchARM.Decode(buf[:]); err == nil {
		t.Error("expected error for out-of-range register")
	}
	// AArch64 opcode bytes below the rotation offset are undefined.
	var ab [Width]byte
	ab[4] = 0x05
	if _, err := ArchAARCH.Decode(ab[:]); err == nil {
		t.Error("expected error for aarch64 low opcode byte")
	}
}

func TestArchEncodingsDiffer(t *testing.T) {
	in := Instr{Op: OpCall, Imm: 0x1234}
	var a, b, c [Width]byte
	ArchARM.Encode(in, a[:])
	ArchAARCH.Encode(in, b[:])
	ArchMIPS.Encode(in, c[:])
	if a == b || a == c || b == c {
		t.Error("architecture encodings should differ for the same instruction")
	}
}

func TestEncodeDecodeAll(t *testing.T) {
	ins := []Instr{{Op: OpMovi, Rd: R0, Imm: 7}, {Op: OpRet}}
	for _, a := range []Arch{ArchARM, ArchAARCH, ArchMIPS} {
		raw := a.EncodeAll(ins)
		if len(raw) != len(ins)*Width {
			t.Fatalf("%v: encoded length %d", a, len(raw))
		}
		for i, want := range ins {
			got, err := a.Decode(raw[i*Width:])
			if err != nil {
				t.Fatalf("%v: %v", a, err)
			}
			if got != want {
				t.Errorf("%v: word %d decodes to %v, want %v", a, i, got, want)
			}
		}
	}
}

func TestDecodeAllStopsAtError(t *testing.T) {
	raw := ArchARM.EncodeAll([]Instr{{Op: OpNop}, {Op: OpNop}})
	raw[Width] = 0xee // corrupt second opcode
	if _, err := ArchARM.Decode(raw); err != nil {
		t.Errorf("intact first word: %v", err)
	}
	if _, err := ArchARM.Decode(raw[Width:]); err == nil {
		t.Fatal("expected error")
	}
}

// randInstr builds a structurally valid random instruction.
func randInstr(r *rand.Rand) Instr {
	return Instr{
		Op:  Op(r.Intn(int(numOps))),
		Rd:  Reg(r.Intn(NumRegs)),
		Rs1: Reg(r.Intn(NumRegs)),
		Rs2: Reg(r.Intn(NumRegs)),
		Imm: int32(r.Uint32()),
	}
}

func TestQuickRoundTrip(t *testing.T) {
	for _, a := range []Arch{ArchARM, ArchAARCH, ArchMIPS} {
		a := a
		f := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			in := randInstr(r)
			var buf [Width]byte
			a.Encode(in, buf[:])
			got, err := a.Decode(buf[:])
			return err == nil && got == in
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
			t.Errorf("%v: %v", a, err)
		}
	}
}

func TestInstrStringCoversAllOps(t *testing.T) {
	for op := Op(0); op < numOps; op++ {
		in := Instr{Op: op, Rd: R1, Rs1: R2, Rs2: R3, Imm: 5}
		if s := in.String(); s == "" {
			t.Errorf("empty string for %v", op)
		}
	}
}

func TestInstrClassifiers(t *testing.T) {
	if !(Instr{Op: OpBeq}).IsBranch() || (Instr{Op: OpJmp}).IsBranch() {
		t.Error("IsBranch misclassifies")
	}
	if !(Instr{Op: OpCall}).IsCall() || !(Instr{Op: OpCallr}).IsCall() || (Instr{Op: OpRet}).IsCall() {
		t.Error("IsCall misclassifies")
	}
	ends := []Op{OpBeq, OpBne, OpBlt, OpBge, OpJmp, OpJr, OpRet, OpTramp}
	for _, op := range ends {
		if !(Instr{Op: op}).EndsBlock() {
			t.Errorf("%v should end a block", op)
		}
	}
	for _, op := range []Op{OpAdd, OpCall, OpPush, OpSys} {
		if (Instr{Op: op}).EndsBlock() {
			t.Errorf("%v should not end a block", op)
		}
	}
}
