package karonte

import (
	"testing"

	"fits/internal/binimg"
	"fits/internal/cfg"
	"fits/internal/isa"
	"fits/internal/loader"
	"fits/internal/minic"
	"fits/internal/synth"
	"fits/internal/ucse"
)

func buildBin(t *testing.T, p *minic.Program) (*binimg.Binary, *cfg.Model) {
	t.Helper()
	bin, err := minic.Link(p, isa.ArchARM, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := cfg.Build(bin, cfg.Options{Resolver: ucse.Resolver()})
	if err != nil {
		t.Fatal(err)
	}
	return bin, m
}

func entryOf(t *testing.T, bin *binimg.Binary, name string) uint32 {
	t.Helper()
	for _, f := range bin.Funcs {
		if f.Name == name {
			return f.Addr
		}
	}
	t.Fatalf("function %q not found", name)
	return 0
}

func TestDirectRegionFlow(t *testing.T) {
	p := &minic.Program{
		Name:    "t",
		Globals: []*minic.Global{{Name: "buf", Size: 64}, {Name: "out", Size: 64}},
		Funcs: []*minic.Func{{Name: "main", Body: []minic.Stmt{
			minic.ExprStmt{E: minic.Call{Name: "recv", Args: []minic.Expr{
				minic.Int(0), minic.GlobalRef("buf"), minic.Int(64), minic.Int(0)}}},
			minic.ExprStmt{E: minic.Call{Name: "strcpy", Args: []minic.Expr{
				minic.GlobalRef("out"), minic.GlobalRef("buf")}}},
			minic.Return{E: minic.Int(0)},
		}}},
	}
	bin, m := buildBin(t, p)
	alerts := New(bin, m, Options{}).Run()
	if len(alerts) != 1 || alerts[0].Sink != "strcpy" {
		t.Fatalf("alerts = %+v", alerts)
	}
}

func TestSymbolicHeapFlow(t *testing.T) {
	// The request buffer lives on the heap: the symbolic engine tracks the
	// pointer through the global slot where the static region engine
	// cannot.
	p := &minic.Program{
		Name:    "t",
		Globals: []*minic.Global{{Name: "ptr", Size: 4}, {Name: "out", Size: 64}},
		Funcs: []*minic.Func{{Name: "main", Body: []minic.Stmt{
			minic.StoreStmt{Size: 4, Addr: minic.GlobalRef("ptr"),
				Val: minic.Call{Name: "malloc", Args: []minic.Expr{minic.Int(64)}}},
			minic.ExprStmt{E: minic.Call{Name: "recv", Args: []minic.Expr{
				minic.Int(0), minic.LoadW(minic.GlobalRef("ptr")), minic.Int(64), minic.Int(0)}}},
			minic.ExprStmt{E: minic.Call{Name: "strcpy", Args: []minic.Expr{
				minic.GlobalRef("out"), minic.LoadW(minic.GlobalRef("ptr"))}}},
			minic.Return{E: minic.Int(0)},
		}}},
	}
	bin, m := buildBin(t, p)
	alerts := New(bin, m, Options{}).Run()
	if len(alerts) != 1 {
		t.Fatalf("alerts = %+v", alerts)
	}
}

func TestCallDepthLimitLosesDeepFlows(t *testing.T) {
	// recv sits below a chain of wrappers; with a small call-depth budget
	// the source is never reached.
	deep := func(depth int) *minic.Program {
		p := &minic.Program{
			Name:    "t",
			Globals: []*minic.Global{{Name: "buf", Size: 64}, {Name: "out", Size: 64}},
		}
		p.Funcs = append(p.Funcs, &minic.Func{Name: "io0", NParams: 0, Body: []minic.Stmt{
			minic.Return{E: minic.Call{Name: "recv", Args: []minic.Expr{
				minic.Int(0), minic.GlobalRef("buf"), minic.Int(64), minic.Int(0)}}},
		}})
		for i := 1; i < depth; i++ {
			prev := "io" + string(rune('0'+i-1))
			p.Funcs = append(p.Funcs, &minic.Func{Name: "io" + string(rune('0'+i)),
				Body: []minic.Stmt{minic.Return{E: minic.Call{Name: prev}}}})
		}
		p.Funcs = append(p.Funcs, &minic.Func{Name: "main", Body: []minic.Stmt{
			minic.ExprStmt{E: minic.Call{Name: "io" + string(rune('0'+depth-1))}},
			minic.ExprStmt{E: minic.Call{Name: "strcpy", Args: []minic.Expr{
				minic.GlobalRef("out"), minic.GlobalRef("buf")}}},
			minic.Return{E: minic.Int(0)},
		}})
		return p
	}
	bin, m := buildBin(t, deep(6))
	shallow := func(bin *binimg.Binary, m *cfg.Model) *Engine {
		e := New(bin, m, Options{})
		e.lim.callDepth = 3
		return e
	}
	if alerts := shallow(bin, m).Run(); len(alerts) != 0 {
		t.Errorf("deep source found despite depth budget: %+v", alerts)
	}
	bin2, m2 := buildBin(t, deep(2))
	if alerts := shallow(bin2, m2).Run(); len(alerts) != 1 {
		t.Errorf("shallow source missed: %+v", alerts)
	}
}

func TestITSSeedsTaintReturnValue(t *testing.T) {
	p := &minic.Program{
		Name:    "t",
		Globals: []*minic.Global{{Name: "store", Size: 64}},
		Funcs: []*minic.Func{
			{Name: "fetch", NParams: 1, Body: []minic.Stmt{
				minic.Return{E: minic.Add(minic.Var("p0"), minic.Int(4))}}},
			{Name: "main", Body: []minic.Stmt{
				minic.Let{Name: "v", E: minic.Call{Name: "fetch", Args: []minic.Expr{minic.GlobalRef("store")}}},
				minic.ExprStmt{E: minic.Call{Name: "system", Args: []minic.Expr{minic.Var("v")}}},
				minic.Return{E: minic.Int(0)},
			}},
		},
	}
	bin, m := buildBin(t, p)
	// Without ITS: no source, no alert.
	if alerts := New(bin, m, Options{}).Run(); len(alerts) != 0 {
		t.Errorf("unexpected alerts without ITS: %+v", alerts)
	}
	fetch := entryOf(t, bin, "fetch")
	alerts := New(bin, m, Options{ITS: []uint32{fetch}}).Run()
	if len(alerts) != 1 || alerts[0].Sink != "system" {
		t.Fatalf("alerts = %+v", alerts)
	}
}

func TestITSSeedBudget(t *testing.T) {
	// With the seeding budget at zero, ITS call sites are followed like
	// ordinary calls and nothing taints.
	p := &minic.Program{
		Name:    "t",
		Globals: []*minic.Global{{Name: "store", Size: 64}},
		Funcs: []*minic.Func{
			{Name: "fetch", NParams: 1, Body: []minic.Stmt{
				minic.Return{E: minic.Add(minic.Var("p0"), minic.Int(4))}}},
			{Name: "main", Body: []minic.Stmt{
				minic.Let{Name: "v", E: minic.Call{Name: "fetch", Args: []minic.Expr{minic.GlobalRef("store")}}},
				minic.ExprStmt{E: minic.Call{Name: "system", Args: []minic.Expr{minic.Var("v")}}},
				minic.Return{E: minic.Int(0)},
			}},
		},
	}
	bin, m := buildBin(t, p)
	fetch := entryOf(t, bin, "fetch")
	e := New(bin, m, Options{ITS: []uint32{fetch}})
	e.lim.itsSeeds = 0
	if alerts := e.Run(); len(alerts) != 0 {
		t.Errorf("alerts despite zero seeding budget: %+v", alerts)
	}
}

func TestStepBudgetBoundsWork(t *testing.T) {
	s, err := synth.Generate(synth.Dataset()[0])
	if err != nil {
		t.Fatal(err)
	}
	res, err := loader.Load(s.Packed, loader.Options{})
	if err != nil {
		t.Fatal(err)
	}
	target := res.Targets[0]
	e := New(target.Bin, target.Model, Options{})
	e.lim.totalSteps = 500
	e.Run()
	if e.Steps > 600 {
		t.Errorf("steps = %d, budget 500", e.Steps)
	}
}

// TestStepBudgetMarksDegraded: an alert is marked Degraded when its
// function was still on a path the step budget cut short, and not when its
// function had returned before the cut.
func TestStepBudgetMarksDegraded(t *testing.T) {
	strcpy := minic.ExprStmt{E: minic.Call{Name: "strcpy", Args: []minic.Expr{
		minic.GlobalRef("out"), minic.GlobalRef("buf")}}}
	p := &minic.Program{
		Name:    "t",
		Globals: []*minic.Global{{Name: "buf", Size: 64}, {Name: "out", Size: 64}},
		Funcs: []*minic.Func{
			{Name: "h", Body: []minic.Stmt{strcpy, minic.Return{E: minic.Int(0)}}},
			{Name: "main", Body: []minic.Stmt{
				minic.ExprStmt{E: minic.Call{Name: "recv", Args: []minic.Expr{
					minic.Int(0), minic.GlobalRef("buf"), minic.Int(64), minic.Int(0)}}},
				minic.ExprStmt{E: minic.Call{Name: "h"}},
				strcpy,
				minic.Return{E: minic.Int(0)},
			}},
		},
	}
	bin, m := buildBin(t, p)
	full := New(bin, m, Options{})
	alerts := full.Run()
	if len(alerts) != 2 {
		t.Fatalf("alerts = %+v, want one in h and one in main", alerts)
	}
	for _, a := range alerts {
		if a.Degraded {
			t.Errorf("alert %+v degraded within budget", a)
		}
	}
	// One step short: main's last instruction never runs.
	e := New(bin, m, Options{})
	e.lim.totalSteps = full.Steps - 1
	alerts = e.Run()
	if len(alerts) != 2 {
		t.Fatalf("alerts = %+v, want both sinks reached before the cut", alerts)
	}
	main, h := entryOf(t, bin, "main"), entryOf(t, bin, "h")
	for _, a := range alerts {
		if want := a.Func == main; a.Degraded != want {
			t.Errorf("alert in %#x (main %#x, h %#x): Degraded = %v, want %v", a.Func, main, h, a.Degraded, want)
		}
	}
}

func TestLoopBoundTerminates(t *testing.T) {
	p := &minic.Program{Name: "t", Funcs: []*minic.Func{{Name: "main", Body: []minic.Stmt{
		minic.Let{Name: "i", E: minic.Int(0)},
		minic.While{Cond: minic.Cond{Op: minic.Ge, L: minic.Var("i"), R: minic.Int(0)},
			Body: []minic.Stmt{minic.Assign{Name: "i", E: minic.Add(minic.Var("i"), minic.Int(1))}}},
		minic.Return{E: minic.Int(0)},
	}}}}
	bin, m := buildBin(t, p)
	e := New(bin, m, Options{})
	e.Run()
	if e.Steps >= e.lim.totalSteps {
		t.Errorf("infinite concrete loop burned the whole budget (%d steps)", e.Steps)
	}
}

func TestIndirectDispatchExplored(t *testing.T) {
	p := &minic.Program{
		Name: "t",
		Globals: []*minic.Global{
			{Name: "buf", Size: 64},
			{Name: "out", Size: 64},
			{Name: "tbl", Size: 8, Init: make([]byte, 8),
				Ptrs: []minic.PtrInit{{Off: 0, FuncName: "h0"}, {Off: 4, FuncName: "h1"}}},
		},
		Funcs: []*minic.Func{
			{Name: "h0", Body: []minic.Stmt{minic.Return{E: minic.Int(0)}}},
			{Name: "h1", Body: []minic.Stmt{
				minic.ExprStmt{E: minic.Call{Name: "strcpy", Args: []minic.Expr{
					minic.GlobalRef("out"), minic.GlobalRef("buf")}}},
				minic.Return{E: minic.Int(0)},
			}},
			{Name: "main", NParams: 1, Body: []minic.Stmt{
				minic.ExprStmt{E: minic.Call{Name: "recv", Args: []minic.Expr{
					minic.Int(0), minic.GlobalRef("buf"), minic.Int(64), minic.Int(0)}}},
				minic.ExprStmt{E: minic.CallInd{Table: "tbl",
					Index: minic.Bin{Op: minic.OpAnd, L: minic.Var("p0"), R: minic.Int(1)}}},
				minic.Return{E: minic.Int(0)},
			}},
		},
	}
	bin, m := buildBin(t, p)
	alerts := New(bin, m, Options{}).Run()
	if len(alerts) != 1 {
		t.Fatalf("dispatch target's flow missed: %+v", alerts)
	}
	h1 := entryOf(t, bin, "h1")
	if alerts[0].Func != h1 {
		t.Errorf("alert func = %#x, want h1 %#x", alerts[0].Func, h1)
	}
}

func TestAlertsDeterministic(t *testing.T) {
	s, err := synth.Generate(synth.Dataset()[30])
	if err != nil {
		t.Fatal(err)
	}
	res, err := loader.Load(s.Packed, loader.Options{})
	if err != nil {
		t.Fatal(err)
	}
	target := res.Targets[0]
	a := New(target.Bin, target.Model, Options{}).Run()
	b := New(target.Bin, target.Model, Options{}).Run()
	if len(a) != len(b) {
		t.Fatalf("nondeterministic alert count: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("nondeterministic alerts")
		}
	}
}

func TestOutParamITSSymbolic(t *testing.T) {
	// A fetcher that writes the field through a pointer parameter: seeding
	// the output parameter taints the buffer for the following sink.
	p := &minic.Program{
		Name: "t",
		Globals: []*minic.Global{
			{Name: "store", Size: 64},
			{Name: "fieldbuf", Size: 64},
			{Name: "out", Size: 64},
		},
		Funcs: []*minic.Func{
			{Name: "fetch_into", NParams: 3, Body: []minic.Stmt{
				minic.StoreStmt{Size: 1, Addr: minic.Var("p2"), Val: minic.LoadB(minic.Var("p1"))},
				minic.Return{E: minic.Int(0)},
			}},
			{Name: "main", Body: []minic.Stmt{
				minic.ExprStmt{E: minic.Call{Name: "fetch_into", Args: []minic.Expr{
					minic.Str("username"), minic.GlobalRef("store"), minic.GlobalRef("fieldbuf")}}},
				minic.ExprStmt{E: minic.Call{Name: "strcpy", Args: []minic.Expr{
					minic.GlobalRef("out"), minic.GlobalRef("fieldbuf")}}},
				minic.Return{E: minic.Int(0)},
			}},
		},
	}
	bin, m := buildBin(t, p)
	fetch := entryOf(t, bin, "fetch_into")
	alerts := New(bin, m, Options{ITSOut: map[uint32][]int{fetch: {2}}}).Run()
	var found bool
	for _, a := range alerts {
		if a.Sink == "strcpy" {
			found = true
		}
	}
	if !found {
		t.Error("symbolic engine missed the pointer-output flow")
	}
}
