package taint

import (
	"context"
	"testing"

	"fits/internal/binimg"
	"fits/internal/cfg"
	"fits/internal/isa"
	"fits/internal/know"
	"fits/internal/loader"
	"fits/internal/minic"
	"fits/internal/synth"
	"fits/internal/ucse"
)

// buildBin links a program and builds its model with indirect resolution.
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

// srcProgram: recv writes a global buffer; one sink consumes the buffer
// pointer (region bug) and one consumes a constant (clean).
func srcProgram() *minic.Program {
	return &minic.Program{
		Name:    "t",
		Globals: []*minic.Global{{Name: "buf", Size: 64}, {Name: "out", Size: 64}},
		Funcs: []*minic.Func{
			{Name: "main", Body: []minic.Stmt{
				minic.ExprStmt{E: minic.Call{Name: "recv", Args: []minic.Expr{
					minic.Int(0), minic.GlobalRef("buf"), minic.Int(64), minic.Int(0)}}},
				minic.ExprStmt{E: minic.Call{Name: "strcpy", Args: []minic.Expr{
					minic.GlobalRef("out"), minic.GlobalRef("buf")}}},
				minic.ExprStmt{E: minic.Call{Name: "system", Args: []minic.Expr{minic.Str("ls")}}},
				minic.Return{E: minic.Int(0)},
			}},
		},
	}
}

func TestCTSRegionAlert(t *testing.T) {
	bin, m := buildBin(t, srcProgram())
	e := New(bin, m, Options{UseCTS: true})
	alerts := e.Run()
	if len(alerts) != 1 {
		t.Fatalf("alerts = %d, want 1 (%+v)", len(alerts), alerts)
	}
	a := alerts[0]
	if a.Sink != "strcpy" || a.From != FromCTSRegion || a.Kind != know.SinkOverflow {
		t.Errorf("alert = %+v", a)
	}
}

func TestNoCTSNoAlert(t *testing.T) {
	p := srcProgram()
	// Remove the recv call: region never tainted.
	p.Funcs[0].Body = p.Funcs[0].Body[1:]
	bin, m := buildBin(t, p)
	if alerts := New(bin, m, Options{UseCTS: true}).Run(); len(alerts) != 0 {
		t.Errorf("alerts = %+v", alerts)
	}
}

func TestHeapBufferDefeatsRegionAnalysis(t *testing.T) {
	p := &minic.Program{
		Name:    "t",
		Globals: []*minic.Global{{Name: "ptr", Size: 4}, {Name: "out", Size: 64}},
		Funcs: []*minic.Func{
			{Name: "main", Body: []minic.Stmt{
				minic.StoreStmt{Size: 4, Addr: minic.GlobalRef("ptr"),
					Val: minic.Call{Name: "malloc", Args: []minic.Expr{minic.Int(64)}}},
				minic.ExprStmt{E: minic.Call{Name: "recv", Args: []minic.Expr{
					minic.Int(0), minic.LoadW(minic.GlobalRef("ptr")), minic.Int(64), minic.Int(0)}}},
				minic.ExprStmt{E: minic.Call{Name: "strcpy", Args: []minic.Expr{
					minic.GlobalRef("out"), minic.LoadW(minic.GlobalRef("ptr"))}}},
				minic.Return{E: minic.Int(0)},
			}},
		},
	}
	bin, m := buildBin(t, p)
	if alerts := New(bin, m, Options{UseCTS: true}).Run(); len(alerts) != 0 {
		t.Errorf("heap flow should be invisible to region analysis: %+v", alerts)
	}
}

// itsProgram: fetch() returns derived data; handlers use it in different
// ways: unchecked (bug), range-checked (sanitized), through a wrapper chain
// (deep bug).
func itsProgram() *minic.Program {
	return &minic.Program{
		Name:    "t",
		Globals: []*minic.Global{{Name: "store", Size: 64}, {Name: "out", Size: 64}},
		Funcs: []*minic.Func{
			{Name: "fetch", NParams: 2, Body: []minic.Stmt{
				minic.Return{E: minic.Add(minic.Var("p1"), minic.Int(4))},
			}},
			{Name: "unchecked", Body: []minic.Stmt{
				minic.Let{Name: "v", E: minic.Call{Name: "fetch", Args: []minic.Expr{
					minic.Str("username"), minic.GlobalRef("store")}}},
				minic.If{Cond: minic.Cond{Op: minic.Eq, L: minic.Var("v"), R: minic.Int(0)},
					Then: []minic.Stmt{minic.Return{E: minic.Int(0)}}},
				minic.ExprStmt{E: minic.Call{Name: "system", Args: []minic.Expr{minic.Var("v")}}},
				minic.Return{E: minic.Int(0)},
			}},
			{Name: "checked", Body: []minic.Stmt{
				minic.Let{Name: "v", E: minic.Call{Name: "fetch", Args: []minic.Expr{
					minic.Str("lang"), minic.GlobalRef("store")}}},
				minic.Let{Name: "n", E: minic.Call{Name: "strlen", Args: []minic.Expr{minic.Var("v")}}},
				minic.If{Cond: minic.Cond{Op: minic.Lt, L: minic.Var("n"), R: minic.Int(32)},
					Then: []minic.Stmt{
						minic.ExprStmt{E: minic.Call{Name: "strcpy", Args: []minic.Expr{
							minic.GlobalRef("out"), minic.Var("v")}}},
					}},
				minic.Return{E: minic.Int(0)},
			}},
			{Name: "wrap1", NParams: 1, Body: []minic.Stmt{
				minic.Return{E: minic.Call{Name: "wrap2", Args: []minic.Expr{minic.Var("p0")}}},
			}},
			{Name: "wrap2", NParams: 1, Body: []minic.Stmt{
				minic.ExprStmt{E: minic.Call{Name: "sprintf", Args: []minic.Expr{
					minic.GlobalRef("out"), minic.Str("%s"), minic.Var("p0"), minic.Int(0)}}},
				minic.Return{E: minic.Int(0)},
			}},
			{Name: "deep", Body: []minic.Stmt{
				minic.Let{Name: "v", E: minic.Call{Name: "fetch", Args: []minic.Expr{
					minic.Str("mac_addr"), minic.GlobalRef("store")}}},
				minic.ExprStmt{E: minic.Call{Name: "wrap1", Args: []minic.Expr{minic.Var("v")}}},
				minic.Return{E: minic.Int(0)},
			}},
			{Name: "main", Body: []minic.Stmt{
				minic.ExprStmt{E: minic.Call{Name: "unchecked"}},
				minic.ExprStmt{E: minic.Call{Name: "checked"}},
				minic.ExprStmt{E: minic.Call{Name: "deep"}},
				minic.Return{E: minic.Int(0)},
			}},
		},
	}
}

func TestITSValueFlow(t *testing.T) {
	bin, m := buildBin(t, itsProgram())
	fetch := entryOf(t, bin, "fetch")
	e := New(bin, m, Options{ITS: []uint32{fetch}})
	alerts := e.Run()
	bySink := map[string]Alert{}
	for _, a := range alerts {
		bySink[a.Sink] = a
	}
	if a, ok := bySink["system"]; !ok {
		t.Error("unchecked flow not reported")
	} else {
		if a.From != FromITS || a.Key != "username" {
			t.Errorf("alert = %+v", a)
		}
	}
	if _, ok := bySink["strcpy"]; ok {
		t.Error("range-checked flow reported (sanitization failed)")
	}
	if a, ok := bySink["sprintf"]; !ok {
		t.Error("deep wrapper flow not reported")
	} else if wrap2 := entryOf(t, bin, "wrap2"); a.Func != wrap2 {
		t.Errorf("deep alert func = %#x, want wrap2 %#x", a.Func, wrap2)
	}
}

func TestStringFilterDropsSystemKeys(t *testing.T) {
	bin, m := buildBin(t, itsProgram())
	fetch := entryOf(t, bin, "fetch")
	e := New(bin, m, Options{ITS: []uint32{fetch}, StringFilter: true})
	alerts := e.Run()
	for _, a := range alerts {
		if a.Key == "mac_addr" {
			t.Error("system-key alert not filtered")
		}
	}
	all := e.AllAlerts()
	if len(all) <= len(alerts) {
		t.Error("filtered alerts not retained in AllAlerts")
	}
}

func TestDepthLimitStopsPropagation(t *testing.T) {
	bin, m := buildBin(t, itsProgram())
	fetch := entryOf(t, bin, "fetch")
	e := New(bin, m, Options{ITS: []uint32{fetch}})
	e.maxDepth = 0 // value flows may not cross any call
	alerts := e.Run()
	for _, a := range alerts {
		if a.Sink == "sprintf" {
			t.Error("deep flow reported despite zero depth budget")
		}
	}
}

func TestTaintThroughGlobalStore(t *testing.T) {
	p := &minic.Program{
		Name:    "t",
		Globals: []*minic.Global{{Name: "slot", Size: 4}, {Name: "store", Size: 64}, {Name: "out", Size: 64}},
		Funcs: []*minic.Func{
			{Name: "fetch", NParams: 1, Body: []minic.Stmt{
				minic.Return{E: minic.Add(minic.Var("p0"), minic.Int(4))}}},
			{Name: "producer", Body: []minic.Stmt{
				minic.StoreStmt{Size: 4, Addr: minic.GlobalRef("slot"),
					Val: minic.Call{Name: "fetch", Args: []minic.Expr{minic.GlobalRef("store")}}},
				minic.Return{E: minic.Int(0)},
			}},
			{Name: "consumer", Body: []minic.Stmt{
				minic.ExprStmt{E: minic.Call{Name: "system", Args: []minic.Expr{
					minic.LoadW(minic.GlobalRef("slot"))}}},
				minic.Return{E: minic.Int(0)},
			}},
			{Name: "main", Body: []minic.Stmt{
				minic.ExprStmt{E: minic.Call{Name: "producer"}},
				minic.ExprStmt{E: minic.Call{Name: "consumer"}},
				minic.Return{E: minic.Int(0)},
			}},
		},
	}
	bin, m := buildBin(t, p)
	fetch := entryOf(t, bin, "fetch")
	alerts := New(bin, m, Options{ITS: []uint32{fetch}}).Run()
	var found bool
	for _, a := range alerts {
		if a.Sink == "system" {
			found = true
		}
	}
	if !found {
		t.Error("taint lost through global slot between functions")
	}
}

// Corpus-level invariants: STA-ITS finds every bug STA finds, and all
// engines' alerts sit at genuine sink call sites.
func TestCorpusSampleSuperset(t *testing.T) {
	for _, idx := range []int{0, 26, 42} {
		s, err := synth.Generate(synth.Dataset()[idx])
		if err != nil {
			t.Fatal(err)
		}
		res, err := loader.LoadContext(context.Background(), s.Packed, loader.Options{})
		if err != nil {
			t.Fatal(err)
		}
		target := res.Targets[0]
		var its []uint32
		for _, it := range s.Manifest.ITSIn(target.Bin.Name) {
			its = append(its, it.Entry)
		}
		cts := New(target.Bin, target.Model, Options{UseCTS: true, StringFilter: true}).Run()
		both := New(target.Bin, target.Model, Options{UseCTS: true, ITS: its, StringFilter: true}).Run()
		sites := map[uint32]bool{}
		for _, a := range both {
			sites[a.Site] = true
		}
		for _, a := range cts {
			if !sites[a.Site] {
				t.Errorf("sample %d: CTS alert at %#x missing from CTS+ITS run", idx, a.Site)
			}
		}
	}
}
