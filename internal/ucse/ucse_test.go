package ucse

import (
	"testing"

	"fits/internal/binimg"
	"fits/internal/cfg"
	"fits/internal/ir"
	"fits/internal/isa"
	"fits/internal/minic"
)

func buildModel(t *testing.T, p *minic.Program, resolve bool) (*binimg.Binary, *cfg.Model) {
	t.Helper()
	bin, err := minic.Link(p, isa.ArchARM, nil)
	if err != nil {
		t.Fatal(err)
	}
	opts := cfg.Options{}
	if resolve {
		opts.Resolver = Resolver()
	}
	m, err := cfg.Build(bin, opts)
	if err != nil {
		t.Fatal(err)
	}
	return bin, m
}

func funcByName(t *testing.T, bin *binimg.Binary, m *cfg.Model, name string) *cfg.Function {
	t.Helper()
	for _, s := range bin.Funcs {
		if s.Name == name {
			if f, ok := m.FuncAt(s.Addr); ok {
				return f
			}
		}
	}
	t.Fatalf("function %q not found", name)
	return nil
}

// dispatchProgram builds a web-server-style dispatcher: handlers reached only
// through a data-section pointer table indexed by an unconstrained value.
func dispatchProgram(handlers int) *minic.Program {
	p := &minic.Program{Name: "t"}
	tbl := &minic.Global{Name: "handlers", Size: 4 * handlers, Init: make([]byte, 4*handlers)}
	for i := 0; i < handlers; i++ {
		name := string(rune('a'+i)) + "_handler"
		p.Funcs = append(p.Funcs, &minic.Func{
			Name: name, NParams: 1,
			Body: []minic.Stmt{minic.Return{E: minic.Add(minic.Var("p0"), minic.Int(int32(i)))}},
		})
		tbl.Ptrs = append(tbl.Ptrs, minic.PtrInit{Off: 4 * i, FuncName: name})
	}
	p.Globals = append(p.Globals, tbl)
	p.Funcs = append(p.Funcs, &minic.Func{
		Name: "dispatch", NParams: 2,
		Body: []minic.Stmt{
			minic.Return{E: minic.CallInd{Table: "handlers", Index: minic.Var("p0"),
				Args: []minic.Expr{minic.Var("p1")}}},
		},
	})
	return p
}

func TestTableResolution(t *testing.T) {
	bin, m := buildModel(t, dispatchProgram(3), false)
	disp := funcByName(t, bin, m, "dispatch")
	rs := New(bin, disp).Explore()
	if len(rs) != 1 {
		t.Fatalf("resolutions = %d, want 1", len(rs))
	}
	if len(rs[0].Targets) != 3 {
		t.Errorf("targets = %d, want 3 (%v)", len(rs[0].Targets), rs[0].Targets)
	}
	if rs[0].TableBase == 0 {
		t.Error("table base not identified")
	}
	// Every target must be a known handler entry.
	for _, target := range rs[0].Targets {
		f, ok := m.FuncAt(target)
		if !ok {
			t.Errorf("target %#x is not a discovered function", target)
			continue
		}
		if f.Params != 1 {
			t.Errorf("handler %s params = %d", f.Name, f.Params)
		}
	}
}

func TestResolverCompletesCallGraph(t *testing.T) {
	bin, m := buildModel(t, dispatchProgram(4), true)
	disp := funcByName(t, bin, m, "dispatch")
	callees := m.Callees(disp)
	if len(callees) != 4 {
		t.Errorf("dispatch callees = %d, want 4", len(callees))
	}
	// Reverse edges must exist for each handler.
	for _, c := range callees {
		if len(m.Callers[c]) == 0 {
			t.Errorf("no callers recorded for %#x", c)
		}
	}
}

func TestConstantIndexResolvesSingleTarget(t *testing.T) {
	p := dispatchProgram(3)
	// Replace dispatch with a constant-index call.
	for _, f := range p.Funcs {
		if f.Name == "dispatch" {
			f.Body = []minic.Stmt{
				minic.Return{E: minic.CallInd{Table: "handlers", Index: minic.Int(1),
					Args: []minic.Expr{minic.Int(5)}}},
			}
		}
	}
	bin, m := buildModel(t, p, false)
	disp := funcByName(t, bin, m, "dispatch")
	rs := New(bin, disp).Explore()
	if len(rs) != 1 || len(rs[0].Targets) != 1 {
		t.Fatalf("resolutions = %+v", rs)
	}
	f, ok := m.FuncAt(rs[0].Targets[0])
	if !ok || f.Name != "b_handler" {
		t.Errorf("resolved to %v", f)
	}
}

func TestRuntimeStoredPointerSameFunction(t *testing.T) {
	// A function stores a function pointer into a global slot and then
	// calls through it: the path-local memory must carry the value.
	p := &minic.Program{
		Name:    "t",
		Globals: []*minic.Global{{Name: "slot", Size: 4}},
		Funcs: []*minic.Func{
			{Name: "target", NParams: 1, Body: []minic.Stmt{minic.Return{E: minic.Var("p0")}}},
			{Name: "caller", Body: []minic.Stmt{
				minic.StoreStmt{Size: 4, Addr: minic.GlobalRef("slot"), Val: minic.FuncAddr("target")},
				minic.Return{E: minic.CallInd{Table: "slot", Index: minic.Int(0),
					Args: []minic.Expr{minic.Int(1)}}},
			}},
		},
	}
	bin, m := buildModel(t, p, false)
	caller := funcByName(t, bin, m, "caller")
	rs := New(bin, caller).Explore()
	if len(rs) != 1 || len(rs[0].Targets) != 1 {
		t.Fatalf("resolutions = %+v", rs)
	}
	f, _ := m.FuncAt(rs[0].Targets[0])
	if f == nil || f.Name != "target" {
		t.Errorf("resolved to %v", f)
	}
}

func TestTableScanStopsAtNonPointer(t *testing.T) {
	// A 2-entry table followed by non-pointer data must yield 2 targets.
	p := dispatchProgram(2)
	p.Globals = append(p.Globals, &minic.Global{
		Name: "after", Size: 8, Init: []byte{1, 2, 3, 4, 5, 6, 7, 8},
	})
	bin, m := buildModel(t, p, false)
	disp := funcByName(t, bin, m, "dispatch")
	rs := New(bin, disp).Explore()
	if len(rs) != 1 || len(rs[0].Targets) != 2 {
		t.Fatalf("targets = %+v", rs)
	}
}

func TestNoIndirectCallsNoResolutions(t *testing.T) {
	p := &minic.Program{Name: "t", Funcs: []*minic.Func{{
		Name: "main", Body: []minic.Stmt{
			minic.ExprStmt{E: minic.Call{Name: "recv", Args: []minic.Expr{minic.Int(0)}}},
			minic.Return{E: minic.Int(0)},
		},
	}}}
	bin, m := buildModel(t, p, false)
	main := funcByName(t, bin, m, "main")
	if rs := New(bin, main).Explore(); len(rs) != 0 {
		t.Errorf("unexpected resolutions %+v", rs)
	}
}

func TestLoopsTerminate(t *testing.T) {
	// A dispatcher inside an unbounded loop must still terminate under the
	// visit bound and resolve targets.
	p := dispatchProgram(2)
	for _, f := range p.Funcs {
		if f.Name == "dispatch" {
			f.Body = []minic.Stmt{
				minic.Let{Name: "i", E: minic.Int(0)},
				minic.While{Cond: minic.Cond{Op: minic.Ge, L: minic.Var("i"), R: minic.Int(0)},
					Body: []minic.Stmt{
						minic.ExprStmt{E: minic.CallInd{Table: "handlers", Index: minic.Var("p0"),
							Args: []minic.Expr{minic.Var("i")}}},
						minic.Assign{Name: "i", E: minic.Add(minic.Var("i"), minic.Int(1))},
					}},
				minic.Return{E: minic.Int(0)},
			}
		}
	}
	bin, m := buildModel(t, p, false)
	disp := funcByName(t, bin, m, "dispatch")
	rs := New(bin, disp).Explore()
	if len(rs) != 1 || len(rs[0].Targets) != 2 {
		t.Fatalf("targets = %+v", rs)
	}
}

func TestSimplifyIdentities(t *testing.T) {
	u := SUnknown{ID: 1}
	if v := simplify(ir.Add, u, SConst{V: 0}); v != SVal(u) {
		t.Errorf("x+0 = %v", v)
	}
	if v := simplify(ir.Add, SConst{V: 0}, u); v != SVal(u) {
		t.Errorf("0+x = %v", v)
	}
	if _, ok := simplify(ir.Mul, u, SConst{V: 4}).(SBin); !ok {
		t.Error("symbolic mul should stay symbolic")
	}
}

func TestSplitAddr(t *testing.T) {
	u := SUnknown{ID: 9}
	base, sym := splitAddr(SConst{V: 0x3000})
	if base != 0x3000 || sym {
		t.Errorf("const split = %#x, %v", base, sym)
	}
	base, sym = splitAddr(SBin{Op: ir.Add, L: SConst{V: 0x3000}, R: SBin{Op: ir.Shl, L: u, R: SConst{V: 2}}})
	if base != 0x3000 || !sym {
		t.Errorf("table split = %#x, %v", base, sym)
	}
	_, sym = splitAddr(u)
	if !sym {
		t.Error("unknown must be symbolic")
	}
}

func TestJumpTableResolution(t *testing.T) {
	p := &minic.Program{
		Name:    "t",
		Globals: []*minic.Global{{Name: "out", Size: 16}},
		Funcs: []*minic.Func{{
			Name: "router", NParams: 1,
			Body: []minic.Stmt{
				minic.Switch{
					E: minic.Var("p0"),
					Cases: [][]minic.Stmt{
						{minic.StoreStmt{Size: 4, Addr: minic.GlobalRef("out"), Val: minic.Int(1)}},
						{minic.StoreStmt{Size: 4, Addr: minic.GlobalRef("out"), Val: minic.Int(2)}},
					},
					Default: []minic.Stmt{minic.Return{E: minic.Int(9)}},
				},
				minic.Return{E: minic.Int(0)},
			},
		}},
	}
	bin, err := minic.Link(p, isa.ArchARM, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Full pipeline: build with both resolvers and check the CFG grew the
	// case blocks.
	m, err := cfg.Build(bin, cfg.Options{Resolver: Resolver(), JumpResolver: JumpResolver()})
	if err != nil {
		t.Fatal(err)
	}
	router := funcByName(t, bin, m, "router")
	if len(router.DynJumps) != 1 {
		t.Fatalf("dyn jumps = %d", len(router.DynJumps))
	}
	ts := router.JumpTables[router.DynJumps[0]]
	if len(ts) != 2 {
		t.Fatalf("resolved targets = %v, want 2", ts)
	}
	for _, target := range ts {
		if _, ok := router.Blocks[target]; !ok {
			t.Errorf("case target %#x not a block of router", target)
		}
	}
}
