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
	addr := &ir.Const{V: int64(FakeSP - 8)}
	if st.Step(&ir.Store{Addr: addr, Val: &ir.Const{V: 42}, Size: 4}) {
		t.Fatal("concrete store reported as clobbering")
	}
	got := st.Eval(&ir.Load{Addr: addr, Size: 4})
	if c, ok := got.(SConst); !ok || c.V != 42 {
		t.Fatalf("load after tracked store = %v, want SConst{42}", got)
	}
	st.HavocMemory()
	u1 := st.Eval(&ir.Load{Addr: addr, Size: 4})
	if _, ok := u1.(SUnknown); !ok {
		t.Fatalf("load after havoc = %v, want fresh unknown", u1)
	}
	// Repeated loads of one address share an identity until the next
	// clobber — the property the interval solver depends on.
	u2 := st.Eval(&ir.Load{Addr: addr, Size: 4})
	if u1 != u2 {
		t.Errorf("two loads of one address got distinct identities: %v vs %v", u1, u2)
	}
	st.HavocMemory()
	if u3 := st.Eval(&ir.Load{Addr: addr, Size: 4}); u3 == u1 {
		t.Error("identity survived a memory havoc")
	}
}

func TestSymStateStepClobberReporting(t *testing.T) {
	st := symBin(t)
	if !st.Step(&ir.Call{}) {
		t.Error("call not reported as clobbering")
	}
	if !st.Step(&ir.Sys{}) {
		t.Error("syscall not reported as clobbering")
	}
	// A store through a symbolic address clobbers; the symbolic value here
	// is whatever an uninitialized register holds.
	if !st.Step(&ir.Store{Addr: &ir.Get{R: isa.R1}, Val: &ir.Const{V: 1}, Size: 4}) {
		t.Error("symbolic-address store not reported as clobbering")
	}
	if st.Step(&ir.WrTmp{T: 1, E: &ir.Const{V: 5}}) {
		t.Error("temp write reported as clobbering")
	}
}

func TestSymStateCallInvalidatesCallerSaved(t *testing.T) {
	st := symBin(t)
	st.Regs[isa.R0] = SConst{V: 7}
	st.Step(&ir.Call{})
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
	addr := &ir.Const{V: int64(FakeSP - 8)}
	st.Step(&ir.Store{Addr: addr, Val: &ir.Const{V: 1}, Size: 4})
	fork := st.clone()
	fork.Step(&ir.Store{Addr: addr, Val: &ir.Const{V: 2}, Size: 4})
	fork.Regs[isa.R0] = SConst{V: 9}
	if got := st.Eval(&ir.Load{Addr: addr, Size: 4}); got != (SConst{V: 1}) {
		t.Errorf("parent load after fork's store = %v, want SConst{1}", got)
	}
	if got := fork.Eval(&ir.Load{Addr: addr, Size: 4}); got != (SConst{V: 2}) {
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
	load := &ir.Load{Addr: &ir.Const{V: int64(bin.Data.Addr)}, Size: 4}
	st := NewSymState(bin)
	if got, ok := st.Eval(load).(SUnknown); !ok {
		t.Errorf("precision-pass load of .data = %v, want an unknown", got)
	}
	st = NewSymState(bin)
	st.trustWritable = true
	if got := st.Eval(load); got != (SConst{V: 7}) {
		t.Errorf("explorer load of .data = %v, want SConst{7}", got)
	}
}
