package ucse

import (
	"testing"

	"fits/internal/ir"
	"fits/internal/isa"
	"fits/internal/minic"
)

func symBin(t *testing.T) *SymState {
	t.Helper()
	bin, err := minic.Link(&minic.Program{
		Name:  "t",
		Funcs: []*minic.Func{{Name: "main", Body: []minic.Stmt{minic.Return{E: minic.Int(0)}}}},
	}, isa.ArchARM, nil)
	if err != nil {
		t.Fatal(err)
	}
	return NewSymState(bin)
}

func TestSymStateTracksConcreteStores(t *testing.T) {
	st := symBin(t)
	addr := ir.Const(FakeSP - 8)
	if st.Step(&ir.Stmt{Kind: ir.Store, Size: 4, A: addr, B: ir.Const(42)}) {
		t.Fatal("concrete store reported as clobbering")
	}
	got := st.Load(SConst{V: FakeSP - 8}, 4)
	if c, ok := got.(SConst); !ok || c.V != 42 {
		t.Fatalf("load after tracked store = %v, want SConst{42}", got)
	}
	st.HavocMemory()
	u1 := st.Load(SConst{V: FakeSP - 8}, 4)
	if _, ok := u1.(SUnknown); !ok {
		t.Fatalf("load after havoc = %v, want fresh unknown", u1)
	}
	// Repeated loads of one address share an identity until the next
	// clobber — the property the interval solver depends on.
	u2 := st.Load(SConst{V: FakeSP - 8}, 4)
	if u1 != u2 {
		t.Errorf("two loads of one address got distinct identities: %v vs %v", u1, u2)
	}
	st.HavocMemory()
	if u3 := st.Load(SConst{V: FakeSP - 8}, 4); u3 == u1 {
		t.Error("identity survived a memory havoc")
	}
}

func TestSymStateStepClobberReporting(t *testing.T) {
	st := symBin(t)
	if !st.Step(&ir.Stmt{Kind: ir.Call, A: ir.Const(0x1000)}) {
		t.Error("call not reported as clobbering")
	}
	if !st.Step(&ir.Stmt{Kind: ir.Sys}) {
		t.Error("syscall not reported as clobbering")
	}
	// A store through a symbolic address clobbers; the symbolic value here
	// is whatever an uninitialized register holds.
	if !st.Step(&ir.Stmt{Kind: ir.Store, Size: 4, A: ir.Reg(isa.R1), B: ir.Const(1)}) {
		t.Error("symbolic-address store not reported as clobbering")
	}
	if st.Step(&ir.Stmt{Kind: ir.Get, Dst: 1, A: ir.Reg(isa.R2)}) {
		t.Error("temp write reported as clobbering")
	}
}

func TestSymStateCallInvalidatesCallerSaved(t *testing.T) {
	st := symBin(t)
	st.Regs[isa.R0] = SConst{V: 7}
	st.Step(&ir.Stmt{Kind: ir.Call, A: ir.Const(0x1000)})
	if _, ok := st.Regs[isa.R0].(SUnknown); !ok {
		t.Errorf("R0 after call = %v, want fresh unknown", st.Regs[isa.R0])
	}
}

func TestHavocAllKeepsSP(t *testing.T) {
	st := symBin(t)
	before := st.Regs[isa.R2]
	st.HavocAll()
	if sp, ok := st.Regs[isa.SP].(SConst); !ok || sp.V != FakeSP {
		t.Errorf("SP after HavocAll = %v, want FakeSP", st.Regs[isa.SP])
	}
	if st.Regs[isa.R2] == before {
		t.Error("register identity survived HavocAll")
	}
}

func TestRenderDeterministicAndDistinct(t *testing.T) {
	v := SBin{Op: ir.Add, L: SUnknown{ID: 1}, R: SConst{V: 4}}
	w := SBin{Op: ir.Add, L: SUnknown{ID: 1}, R: SConst{V: 4}}
	if Render(v) != Render(w) {
		t.Errorf("equal values render differently: %q vs %q", Render(v), Render(w))
	}
	if Render(SUnknown{ID: 1}) == Render(SUnknown{ID: 2}) {
		t.Error("distinct unknowns render identically")
	}
	if Render(SAlloc{Site: 0x100}) == Render(SAlloc{Site: 0x104}) {
		t.Error("distinct allocation sites render identically")
	}
}

func TestHasLoad(t *testing.T) {
	ld := SLoad{Addr: SUnknown{ID: 3}}
	if !HasLoad(ld) {
		t.Error("bare load not detected")
	}
	if !HasLoad(SBin{Op: ir.Add, L: SConst{V: 1}, R: ld}) {
		t.Error("nested load not detected")
	}
	if HasLoad(SBin{Op: ir.Add, L: SConst{V: 1}, R: SUnknown{ID: 9}}) {
		t.Error("load-free value flagged")
	}
}

// TestSimplifyExported pins the folding rules every SymState step applies
// to binary operations: constants fold, and adding zero leaves a term as is.
func TestSimplifyExported(t *testing.T) {
	if got := simplify(ir.Add, SConst{V: 2}, SConst{V: 3}); got != (SConst{V: 5}) {
		t.Errorf("2+3 = %v, want SConst{5}", got)
	}
	u := SUnknown{ID: 7}
	if got := simplify(ir.Add, u, SConst{V: 0}); got != SVal(u) {
		t.Errorf("u+0 = %v, want u unchanged", got)
	}
}

func TestSymStateCloneIsolation(t *testing.T) {
	st := symBin(t)
	addr := ir.Const(FakeSP - 8)
	st.Step(&ir.Stmt{Kind: ir.Store, Size: 4, A: addr, B: ir.Const(1)})
	fork := st.Clone()
	fork.Step(&ir.Stmt{Kind: ir.Store, Size: 4, A: addr, B: ir.Const(2)})
	fork.Regs[isa.R0] = SConst{V: 9}
	if got := st.Load(SConst{V: FakeSP - 8}, 4); got != (SConst{V: 1}) {
		t.Errorf("parent load after fork's store = %v, want SConst{1}", got)
	}
	if got := fork.Load(SConst{V: FakeSP - 8}, 4); got != (SConst{V: 2}) {
		t.Errorf("fork load = %v, want SConst{2}", got)
	}
	if st.Regs[isa.R0] == fork.Regs[isa.R0] {
		t.Error("fork's register write reached the parent")
	}
}

// TestSymStateLoadTrust: the precision passes read only read-only image
// bytes; the explorer's state also trusts initialized writable data.
func TestSymStateLoadTrust(t *testing.T) {
	bin, err := minic.Link(&minic.Program{
		Name:    "t",
		Globals: []*minic.Global{{Name: "g", Size: 4, Init: []byte{7, 0, 0, 0}}},
		Funcs:   []*minic.Func{{Name: "main", Body: []minic.Stmt{minic.Return{E: minic.Int(0)}}}},
	}, isa.ArchARM, nil)
	if err != nil {
		t.Fatal(err)
	}
	load := func(st *SymState) SVal { return st.Load(SConst{V: bin.Data.Addr}, 4) }
	st := NewSymState(bin)
	if got, ok := load(st).(SUnknown); !ok {
		t.Errorf("precision-pass load of .data = %v, want an unknown", got)
	}
	st = NewPathState(bin)
	if got := load(st); got != (SConst{V: 7}) {
		t.Errorf("explorer load of .data = %v, want SConst{7}", got)
	}
}

// TestSymStateAccessWidth: tracked stores keep their width. A byte store
// keeps only the low byte, a narrower load of a wider store reads its low
// bytes, and a load that a store covers only in part assembles the stored
// and image bytes — or, when one of them is not a known constant, reads an
// unknown rather than a stale image byte.
func TestSymStateAccessWidth(t *testing.T) {
	st := symBin(t)
	addr := ir.Const(FakeSP - 8)
	load := func(size int) SVal { return st.Load(SConst{V: FakeSP - 8}, size) }
	store := func(at ir.Arg, v SVal, size int) {
		t.Helper()
		st.SetTemp(0, v)
		if st.Step(&ir.Stmt{Kind: ir.Store, Size: uint8(size), A: at, B: ir.Tmp(0)}) {
			t.Fatal("concrete store reported as clobbering")
		}
	}
	store(addr, SConst{V: 0x1234}, 1)
	if got := load(1); got != (SConst{V: 0x34}) {
		t.Errorf("byte load after byte store of 0x1234 = %v, want 0x34", got)
	}
	store(addr, SConst{V: 0x11223344}, 4)
	if got := load(1); got != (SConst{V: 0x44}) {
		t.Errorf("byte load of a stored word 0x11223344 = %v, want 0x44", got)
	}
	store(ir.Const(FakeSP-7), SConst{V: 0xaa}, 1)
	if got := load(4); got != (SConst{V: 0x1122aa44}) {
		t.Errorf("word load after a byte store into the word = %v, want 0x1122aa44", got)
	}
	if got := load(1); got != (SConst{V: 0x44}) {
		t.Errorf("byte load of the word's untouched low byte = %v, want 0x44", got)
	}

	// A symbolic word partly overwritten by a byte: what is left of it is
	// unknown, and so is any word read across it.
	u := st.Fresh()
	store(addr, u, 4)
	store(ir.Const(FakeSP-6), SConst{V: 1}, 1)
	if got, ok := load(4).(SUnknown); !ok || got == u {
		t.Errorf("word load across a partly overwritten symbolic word = %v, want a fresh unknown", got)
	}
	if _, ok := load(1).(SConst); ok {
		t.Error("byte of a symbolic word read as a constant")
	}
	// A symbolic byte store keeps only the low byte: it is not the whole
	// value it was given.
	store(addr, u, 1)
	if got := load(1); got == u {
		t.Errorf("byte load after a symbolic byte store = %v, the unmasked value", got)
	}
}
