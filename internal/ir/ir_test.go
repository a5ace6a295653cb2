package ir

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"fits/internal/isa"
)

func lift1(t *testing.T, in isa.Instr) *Block {
	t.Helper()
	b, err := NewLifter().Lift(0x1000, in)
	if err != nil {
		t.Fatalf("lift %v: %v", in, err)
	}
	return b
}

func TestLiftMovi(t *testing.T) {
	b := lift1(t, isa.Instr{Op: isa.OpMovi, Rd: isa.R2, Imm: 77})
	if len(b.Stmts) != 1 {
		t.Fatalf("got %d stmts", len(b.Stmts))
	}
	p, ok := b.Stmts[0].(*Put)
	if !ok || p.R != isa.R2 {
		t.Fatalf("stmt = %v", b.Stmts[0])
	}
	if c, ok := p.E.(*Const); !ok || c.V != 77 {
		t.Fatalf("value = %v", p.E)
	}
}

func TestLiftAdd(t *testing.T) {
	b := lift1(t, isa.Instr{Op: isa.OpAdd, Rd: isa.R0, Rs1: isa.R1, Rs2: isa.R2})
	// Expect: t0=GET(r1); t1=GET(r2); t2=Binop(Add,t0,t1); PUT(r0)=t2
	if len(b.Stmts) != 4 {
		t.Fatalf("got %d stmts: %v", len(b.Stmts), b)
	}
	w, ok := b.Stmts[2].(*WrTmp)
	if !ok {
		t.Fatalf("stmt 2 = %v", b.Stmts[2])
	}
	bo, ok := w.E.(*Binop)
	if !ok || bo.Op != Add {
		t.Fatalf("expr = %v", w.E)
	}
	p := b.Stmts[3].(*Put)
	if p.R != isa.R0 {
		t.Errorf("dest = %v", p.R)
	}
}

func TestLiftLoadStore(t *testing.T) {
	b := lift1(t, isa.Instr{Op: isa.OpLdw, Rd: isa.R4, Rs1: isa.R5, Imm: 12})
	var foundLoad bool
	for _, s := range b.Stmts {
		if w, ok := s.(*WrTmp); ok {
			if l, ok := w.E.(*Load); ok {
				foundLoad = true
				if l.Size != isa.WordSize {
					t.Errorf("load size = %d", l.Size)
				}
			}
		}
	}
	if !foundLoad {
		t.Error("no Load lifted for ldw")
	}

	b = lift1(t, isa.Instr{Op: isa.OpStb, Rs1: isa.R5, Rs2: isa.R6, Imm: 3})
	var foundStore bool
	for _, s := range b.Stmts {
		if st, ok := s.(*Store); ok {
			foundStore = true
			if st.Size != 1 {
				t.Errorf("store size = %d", st.Size)
			}
		}
	}
	if !foundStore {
		t.Error("no Store lifted for stb")
	}
}

func TestLiftBranch(t *testing.T) {
	b := lift1(t, isa.Instr{Op: isa.OpBne, Rs1: isa.R0, Rs2: isa.R1, Imm: 0x2000})
	last := b.Stmts[len(b.Stmts)-1]
	e, ok := last.(*Exit)
	if !ok {
		t.Fatalf("last stmt = %v", last)
	}
	if e.Target != 0x2000 {
		t.Errorf("target = %#x", e.Target)
	}
	// Condition must be a CmpNE binop temporary.
	w := b.Stmts[len(b.Stmts)-2].(*WrTmp)
	if bo := w.E.(*Binop); bo.Op != CmpNE {
		t.Errorf("cond op = %v", bo.Op)
	}
}

func TestLiftCalls(t *testing.T) {
	b := lift1(t, isa.Instr{Op: isa.OpCall, Imm: 0x3000})
	var c *Call
	var found bool
	for _, s := range b.Stmts {
		if cs, ok := s.(*Call); ok {
			c, found = cs, true
		}
	}
	if !found || c.Kind != CallDirect || c.Target != 0x3000 {
		t.Fatalf("call = %+v found=%v", c, found)
	}
	// LR must receive the return address.
	p, ok := b.Stmts[0].(*Put)
	if !ok || p.R != isa.LR {
		t.Fatalf("first stmt = %v", b.Stmts[0])
	}
	if cv := p.E.(*Const); cv.V != 0x1000+isa.Width {
		t.Errorf("return addr = %#x", cv.V)
	}

	b = lift1(t, isa.Instr{Op: isa.OpCallr, Rs1: isa.R7})
	found = false
	for _, s := range b.Stmts {
		if cs, ok := s.(*Call); ok && cs.Kind == CallIndirect {
			found = true
		}
	}
	if !found {
		t.Error("no indirect call lifted")
	}

	b = lift1(t, isa.Instr{Op: isa.OpTramp, Imm: 0x9000})
	cs, ok := b.Stmts[0].(*Call)
	if !ok || cs.Kind != CallTramp || cs.GOT != 0x9000 {
		t.Fatalf("tramp = %v", b.Stmts[0])
	}
	if _, ok := b.Stmts[1].(*Ret); !ok {
		t.Error("tramp must be followed by ret")
	}
}

func TestLiftPushPop(t *testing.T) {
	b := lift1(t, isa.Instr{Op: isa.OpPush, Rs1: isa.LR})
	var gotStore, gotSPPut bool
	for _, s := range b.Stmts {
		switch s := s.(type) {
		case *Store:
			gotStore = true
		case *Put:
			if s.R == isa.SP {
				gotSPPut = true
			}
		}
	}
	if !gotStore || !gotSPPut {
		t.Errorf("push lifting incomplete: %v", b)
	}

	b = lift1(t, isa.Instr{Op: isa.OpPop, Rd: isa.R9})
	var gotLoad, gotDest bool
	for _, s := range b.Stmts {
		switch s := s.(type) {
		case *WrTmp:
			if _, ok := s.E.(*Load); ok {
				gotLoad = true
			}
		case *Put:
			if s.R == isa.R9 {
				gotDest = true
			}
		}
	}
	if !gotLoad || !gotDest {
		t.Errorf("pop lifting incomplete: %v", b)
	}
}

func TestLiftAllTempsUnique(t *testing.T) {
	ins := []isa.Instr{
		{Op: isa.OpAdd, Rd: isa.R0, Rs1: isa.R1, Rs2: isa.R2},
		{Op: isa.OpLdw, Rd: isa.R3, Rs1: isa.R0, Imm: 4},
		{Op: isa.OpBeq, Rs1: isa.R3, Rs2: isa.R0, Imm: 0x40},
		{Op: isa.OpRet},
	}
	l := NewLifter()
	blocks, err := liftAll(l, 0x100, ins)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != len(ins) {
		t.Fatalf("got %d blocks", len(blocks))
	}
	seen := map[Temp]bool{}
	for _, b := range blocks {
		for _, s := range b.Stmts {
			if w, ok := s.(*WrTmp); ok {
				if seen[w.T] {
					t.Fatalf("temp %v assigned twice", w.T)
				}
				seen[w.T] = true
			}
		}
	}
	if int(l.next) != len(seen) {
		t.Errorf("temps allocated = %d, seen %d", l.next, len(seen))
	}
	if blocks[1].Addr != 0x100+isa.Width {
		t.Errorf("block addr = %#x", blocks[1].Addr)
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
		b, err := NewLifter().Lift(0x400, in)
		if err != nil {
			return false
		}
		defined := map[Temp]bool{}
		var useOK func(e Expr) bool
		useOK = func(e Expr) bool {
			switch e := e.(type) {
			case *RdTmp:
				return defined[e.T]
			case *Load:
				return useOK(e.Addr)
			case *Binop:
				return useOK(e.L) && useOK(e.R)
			default:
				return true
			}
		}
		for _, s := range b.Stmts {
			switch s := s.(type) {
			case *WrTmp:
				if !useOK(s.E) {
					return false
				}
				defined[s.T] = true
			case *Put:
				if !useOK(s.E) {
					return false
				}
			case *Store:
				if !useOK(s.Addr) || !useOK(s.Val) {
					return false
				}
			case *Exit:
				if !useOK(s.Cond) {
					return false
				}
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

func TestStringers(t *testing.T) {
	b := lift1(t, isa.Instr{Op: isa.OpAdd, Rd: isa.R0, Rs1: isa.R1, Rs2: isa.R2})
	s := b.String()
	for _, want := range []string{"0x1000", "GET(r1)", "PUT(r0)"} {
		if !strings.Contains(s, want) {
			t.Errorf("block string missing %q:\n%s", want, s)
		}
	}
	if Temp(3).String() != "t3" {
		t.Error("temp stringer")
	}
	if (&Jump{Dyn: &Get{R: isa.R1}}).String() != "goto GET(r1)" {
		t.Errorf("dyn jump stringer: %s", &Jump{Dyn: &Get{R: isa.R1}})
	}
	if !strings.Contains((&Sys{Num: 4}).String(), "4") {
		t.Error("sys stringer")
	}
	if !strings.Contains(BinOp(99).String(), "99") {
		t.Error("invalid binop stringer")
	}
}
