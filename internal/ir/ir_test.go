package ir

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"fits/internal/isa"
)

func lift1(t *testing.T, in isa.Instr) []Stmt {
	t.Helper()
	l := new(Lifter)
	if err := l.Lift(0x1000, in); err != nil {
		t.Fatalf("lift %v: %v", in, err)
	}
	code := l.Code()
	return code.Instr(0)
}

func TestLiftMovi(t *testing.T) {
	b := lift1(t, isa.Instr{Op: isa.OpMovi, Rd: isa.R2, Imm: 77})
	if len(b) != 1 {
		t.Fatalf("got %d stmts", len(b))
	}
	if p := b[0]; p.Kind != Put || p.R() != isa.R2 || p.A != Const(77) {
		t.Fatalf("stmt = %v", p)
	}
}

func TestLiftAdd(t *testing.T) {
	b := lift1(t, isa.Instr{Op: isa.OpAdd, Rd: isa.R0, Rs1: isa.R1, Rs2: isa.R2})
	// Expect: t0=GET(r1); t1=GET(r2); t2=Add(t0,t1); PUT(r0)=t2
	if len(b) != 4 {
		t.Fatalf("got %d stmts: %v", len(b), b)
	}
	if w := b[2]; w.Kind != Bin || w.Op != Add || w.A != Tmp(0) || w.B != Tmp(1) {
		t.Fatalf("stmt 2 = %v", w)
	}
	if p := b[3]; p.Kind != Put || p.R() != isa.R0 || p.A != Tmp(2) {
		t.Errorf("stmt 3 = %v", p)
	}
}

func TestLiftLoadStore(t *testing.T) {
	b := lift1(t, isa.Instr{Op: isa.OpLdw, Rd: isa.R4, Rs1: isa.R5, Imm: 12})
	var foundLoad bool
	for _, s := range b {
		if s.Kind == Load {
			foundLoad = true
			if s.Size != isa.WordSize {
				t.Errorf("load size = %d", s.Size)
			}
		}
	}
	if !foundLoad {
		t.Error("no Load lifted for ldw")
	}

	b = lift1(t, isa.Instr{Op: isa.OpStb, Rs1: isa.R5, Rs2: isa.R6, Imm: 3})
	var foundStore bool
	for _, s := range b {
		if s.Kind == Store {
			foundStore = true
			if s.Size != 1 {
				t.Errorf("store size = %d", s.Size)
			}
		}
	}
	if !foundStore {
		t.Error("no Store lifted for stb")
	}
}

func TestLiftBranch(t *testing.T) {
	b := lift1(t, isa.Instr{Op: isa.OpBne, Rs1: isa.R0, Rs2: isa.R1, Imm: 0x2000})
	last := b[len(b)-1]
	if last.Kind != Exit {
		t.Fatalf("last stmt = %v", last)
	}
	if last.Target() != 0x2000 {
		t.Errorf("target = %#x", last.Target())
	}
	// Condition must be a CmpNE binop temporary.
	if w := b[len(b)-2]; w.Kind != Bin || w.Op != CmpNE || last.A != Tmp(w.T()) {
		t.Errorf("cond = %v", w)
	}
}

func TestLiftCalls(t *testing.T) {
	b := lift1(t, isa.Instr{Op: isa.OpCall, Imm: 0x3000})
	var c Stmt
	var found bool
	for _, s := range b {
		if s.Kind == Call {
			c, found = s, true
		}
	}
	if !found || c.Dynamic() || c.Target() != 0x3000 {
		t.Fatalf("call = %+v found=%v", c, found)
	}
	// LR must receive the return address.
	if p := b[0]; p.Kind != Put || p.R() != isa.LR || p.A != Const(0x1000+isa.Width) {
		t.Fatalf("first stmt = %v", p)
	}

	b = lift1(t, isa.Instr{Op: isa.OpCallr, Rs1: isa.R7})
	found = false
	for _, s := range b {
		if s.Kind == Call && s.Dynamic() {
			found = true
		}
	}
	if !found {
		t.Error("no indirect call lifted")
	}

	b = lift1(t, isa.Instr{Op: isa.OpTramp, Imm: 0x9000})
	if cs := b[0]; cs.Kind != Tramp || cs.Target() != 0x9000 {
		t.Fatalf("tramp = %v", cs)
	}
	if b[1].Kind != Ret {
		t.Error("tramp must be followed by ret")
	}
}

func TestLiftPushPop(t *testing.T) {
	b := lift1(t, isa.Instr{Op: isa.OpPush, Rs1: isa.LR})
	var gotStore, gotSPPut bool
	for _, s := range b {
		switch {
		case s.Kind == Store:
			gotStore = true
		case s.Kind == Put && s.R() == isa.SP:
			gotSPPut = true
		}
	}
	if !gotStore || !gotSPPut {
		t.Errorf("push lifting incomplete: %v", b)
	}

	b = lift1(t, isa.Instr{Op: isa.OpPop, Rd: isa.R9})
	var gotLoad, gotDest bool
	for _, s := range b {
		switch {
		case s.Kind == Load:
			gotLoad = true
		case s.Kind == Put && s.R() == isa.R9:
			gotDest = true
		}
	}
	if !gotLoad || !gotDest {
		t.Errorf("pop lifting incomplete: %v", b)
	}
}

// TestLiftAllTempsUnique: lifting a run of instructions into one Code
// gives each instruction its own contiguous range of statements, in
// order, and within an instruction no temp is assigned twice.
func TestLiftAllTempsUnique(t *testing.T) {
	ins := []isa.Instr{
		{Op: isa.OpAdd, Rd: isa.R0, Rs1: isa.R1, Rs2: isa.R2},
		{Op: isa.OpLdw, Rd: isa.R3, Rs1: isa.R0, Imm: 4},
		{Op: isa.OpBeq, Rs1: isa.R3, Rs2: isa.R0, Imm: 0x40},
		{Op: isa.OpRet},
	}
	code, err := liftAll(new(Lifter), 0x100, ins)
	if err != nil {
		t.Fatal(err)
	}
	if len(code.Starts) != len(ins)+1 || code.Starts[0] != 0 || int(code.Starts[len(ins)]) != len(code.Stmts) {
		t.Fatalf("starts %v do not cover %d statements of %d instructions", code.Starts, len(code.Stmts), len(ins))
	}
	for i, in := range ins {
		if code.Starts[i] > code.Starts[i+1] {
			t.Fatalf("instruction %d starts at %d, after instruction %d ends", i, code.Starts[i], i+1)
		}
		seen := map[Temp]bool{}
		for _, s := range code.Instr(i) {
			if !s.Writes() {
				continue
			}
			if seen[s.T()] {
				t.Fatalf("%v: temp %v assigned twice", in, s.T())
			}
			seen[s.T()] = true
		}
		if len(seen) != liftCounts[in.Op].temps {
			t.Errorf("%v: %d temps, want %d", in, len(seen), liftCounts[in.Op].temps)
		}
	}
	if got := code.Instr(2); got[len(got)-1].Kind != Exit {
		t.Errorf("instruction 2 = %v, want it to end in its exit", got)
	}
}

// Property: every instruction lifts without error, temporaries are written
// before use, and every statement prints.
func TestQuickLiftWellFormed(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in := isa.Instr{
			Op:  isa.Op(r.Intn(30)),
			Rd:  isa.Reg(r.Intn(isa.NumRegs)),
			Rs1: isa.Reg(r.Intn(isa.NumRegs)),
			Rs2: isa.Reg(r.Intn(isa.NumRegs)),
			Imm: int32(r.Uint32()),
		}
		if !in.Op.Valid() {
			return true
		}
		l := new(Lifter)
		if err := l.Lift(0x400, in); err != nil {
			return false
		}
		code := l.Code()
		defined := map[Temp]bool{}
		for _, s := range code.Instr(0) {
			for _, a := range []Arg{s.A, s.B} {
				if a.Kind == ArgTmp && !defined[a.Temp()] {
					return false
				}
			}
			if s.Writes() {
				defined[s.T()] = true
			}
			if s.String() == "" {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// blockString renders a lifted instruction, one statement a line.
func blockString(addr uint32, raw isa.Instr, stmts []Stmt) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "0x%x: %s\n", addr, raw)
	for _, s := range stmts {
		fmt.Fprintf(&sb, "    %s\n", s)
	}
	return sb.String()
}

func TestStringers(t *testing.T) {
	in := isa.Instr{Op: isa.OpAdd, Rd: isa.R0, Rs1: isa.R1, Rs2: isa.R2}
	s := blockString(0x1000, in, lift1(t, in))
	for _, want := range []string{"0x1000", "t0 = GET(r1)", "t2 = Add(t0,t1)", "PUT(r0) = t2"} {
		if !strings.Contains(s, want) {
			t.Errorf("block string missing %q:\n%s", want, s)
		}
	}
	if Temp(3).String() != "t3" {
		t.Error("temp stringer")
	}
	for _, c := range []struct {
		s    Stmt
		want string
	}{
		{Stmt{Kind: Jump, A: Tmp(1)}, "goto t1"},
		{Stmt{Kind: Jump, A: Const(0x40)}, "goto 0x40"},
		{Stmt{Kind: Load, Dst: 1, Size: 1, A: Tmp(0)}, "t1 = Load8(t0)"},
		{Stmt{Kind: Store, Size: 4, A: Tmp(2), B: Tmp(0)}, "Store32(t2) = t0"},
		{Stmt{Kind: Exit, A: Tmp(2), B: Const(0x2000)}, "if (t2) goto 0x2000"},
		{Stmt{Kind: Call, A: Const(0xfffffff8)}, "call 0xfffffff8"},
		{Stmt{Kind: Tramp, A: Const(0x9000)}, "call [got:0x9000]"},
		{Stmt{Kind: Ret}, "ret"},
		{Stmt{Kind: Sys, A: Const(4)}, "sys 4"},
	} {
		if got := c.s.String(); got != c.want {
			t.Errorf("%+v prints %q, want %q", c.s, got, c.want)
		}
	}
	if !strings.Contains(BinOp(99).String(), "99") {
		t.Error("invalid binop stringer")
	}
}
