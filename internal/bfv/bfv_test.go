package bfv

import (
	"strings"
	"testing"

	"fits/internal/binimg"
	"fits/internal/cfg"
	"fits/internal/isa"
	"fits/internal/minic"
)

func buildModel(t *testing.T, p *minic.Program) (*binimg.Binary, *cfg.Model) {
	t.Helper()
	bin, err := minic.Link(p, isa.ArchARM, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := cfg.Build(bin, cfg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return bin, m
}

func fnNamed(t *testing.T, bin *binimg.Binary, m *cfg.Model, name string) *cfg.Function {
	t.Helper()
	for _, s := range bin.Funcs {
		if s.Name == name {
			if f, ok := m.FuncAt(s.Addr); ok {
				return f
			}
		}
	}
	t.Fatalf("function %q not in model", name)
	return nil
}

// itsProgram builds a getvar-style intermediate taint source: it scans a
// stored buffer for a keyword with strncmp, copies the match with memcpy and
// returns it — fn16 of the paper's Figure 1b — plus two callers passing
// string keys and a plain arithmetic confounder.
func itsProgram() *minic.Program {
	return &minic.Program{
		Name:    "httpd",
		Globals: []*minic.Global{{Name: "reqbuf", Size: 64}},
		Funcs: []*minic.Func{
			{
				Name: "getvar", NParams: 3,
				Body: []minic.Stmt{
					minic.Let{Name: "klen", E: minic.Call{Name: "strlen", Args: []minic.Expr{minic.Var("p0")}}},
					minic.Let{Name: "i", E: minic.Int(0)},
					minic.Let{Name: "out", E: minic.Int(0)},
					minic.While{
						Cond: minic.Cond{Op: minic.Lt, L: minic.Var("i"), R: minic.Var("p2")},
						Body: []minic.Stmt{
							minic.If{
								Cond: minic.Truthy(minic.Call{Name: "strncmp", Args: []minic.Expr{
									minic.Var("p0"), minic.Add(minic.Var("p1"), minic.Var("i")), minic.Var("klen")}}),
								Then: []minic.Stmt{
									minic.Assign{Name: "i", E: minic.Add(minic.Var("i"), minic.Int(1))},
								},
								Else: []minic.Stmt{
									minic.Assign{Name: "out", E: minic.Call{Name: "malloc", Args: []minic.Expr{minic.Var("klen")}}},
									minic.ExprStmt{E: minic.Call{Name: "memcpy", Args: []minic.Expr{
										minic.Var("out"), minic.Add(minic.Var("p1"), minic.Var("i")), minic.Var("klen")}}},
									minic.Assign{Name: "i", E: minic.Var("p2")},
								},
							},
						},
					},
					minic.Return{E: minic.Var("out")},
				},
			},
			{
				Name: "login", Body: []minic.Stmt{
					minic.ExprStmt{E: minic.Call{Name: "getvar", Args: []minic.Expr{
						minic.Str("username"), minic.GlobalRef("reqbuf"), minic.Int(64)}}},
					minic.ExprStmt{E: minic.Call{Name: "getvar", Args: []minic.Expr{
						minic.Str("password"), minic.GlobalRef("reqbuf"), minic.Int(64)}}},
					minic.Return{E: minic.Int(0)},
				},
			},
			{
				Name: "settings", Body: []minic.Stmt{
					minic.Return{E: minic.Call{Name: "getvar", Args: []minic.Expr{
						minic.Str("lang"), minic.GlobalRef("reqbuf"), minic.Int(64)}}},
				},
			},
			{
				Name: "confounder", NParams: 1, Body: []minic.Stmt{
					minic.Return{E: minic.Mul(minic.Var("p0"), minic.Int(3))},
				},
			},
		},
	}
}

func TestITSVector(t *testing.T) {
	bin, m := buildModel(t, itsProgram())
	ex := New(bin, m)
	v := ex.FuncVector(fnNamed(t, bin, m, "getvar"))

	if v[FBasicBlocks] < 4 {
		t.Errorf("basic blocks = %g, want >= 4", v[FBasicBlocks])
	}
	if v[FHasLoop] != 1 {
		t.Error("loop not detected")
	}
	if v[FCallers] != 3 {
		t.Errorf("callers = %g, want 3", v[FCallers])
	}
	if v[FParams] != 3 {
		t.Errorf("params = %g, want 3", v[FParams])
	}
	// strncmp + memcpy + strlen are anchors; malloc is a plain lib call.
	if v[FAnchorCalls] != 3 {
		t.Errorf("anchor calls = %g, want 3", v[FAnchorCalls])
	}
	if v[FLibCalls] != 4 {
		t.Errorf("lib calls = %g, want 4", v[FLibCalls])
	}
	if v[FParamLoop] != 1 || v[FParamBranch] != 1 || v[FParamAnchor] != 1 {
		t.Errorf("flow features = %v %v %v", v[FParamLoop], v[FParamBranch], v[FParamAnchor])
	}
	if v[FArgStrings] != 1 {
		t.Error("string arguments not detected")
	}
	if v[FNumStrings] != 3 {
		t.Errorf("distinct strings = %g, want 3 (username/password/lang)", v[FNumStrings])
	}
}

func TestConfounderVector(t *testing.T) {
	bin, m := buildModel(t, itsProgram())
	ex := New(bin, m)
	v := ex.FuncVector(fnNamed(t, bin, m, "confounder"))
	if v[FHasLoop] != 0 || v[FAnchorCalls] != 0 || v[FLibCalls] != 0 {
		t.Errorf("confounder vector = %v", v)
	}
	if v[FParams] != 1 {
		t.Errorf("params = %g", v[FParams])
	}
	if v[FArgStrings] != 0 || v[FNumStrings] != 0 {
		t.Errorf("string features = %v %v", v[FArgStrings], v[FNumStrings])
	}
}

func TestAllSkipsStubs(t *testing.T) {
	bin, m := buildModel(t, itsProgram())
	ex := New(bin, m)
	funcs := m.CustomFuncs()
	for _, f := range funcs {
		if f.ImportStub {
			t.Errorf("stub %s included", f.Name)
		}
		ex.FuncVector(f)
	}
	if len(funcs) != 4 {
		t.Errorf("custom functions = %d, want 4", len(funcs))
	}
}

// TestExtraCallers: FCallers is a plain count of call sites, so one more
// caller moves it by exactly one and leaves every other feature alone. That
// is what lets infer add a target's calls to a library export's PLT stub onto
// the library's memoized anchor vector after extraction.
func TestExtraCallers(t *testing.T) {
	bin, m := buildModel(t, itsProgram())
	base := New(bin, m).FuncVector(fnNamed(t, bin, m, "getvar"))

	p := itsProgram()
	p.Funcs = append(p.Funcs, &minic.Func{
		Name: "status", NParams: 1, Body: []minic.Stmt{
			minic.Return{E: minic.Call{Name: "getvar", Args: []minic.Expr{
				minic.Var("p0"), minic.GlobalRef("reqbuf"), minic.Int(64)}}},
		},
	})
	bin, m = buildModel(t, p)
	boosted := New(bin, m).FuncVector(fnNamed(t, bin, m, "getvar"))
	want := base
	want[FCallers]++
	if boosted != want {
		t.Errorf("one more caller: %v -> %v, want %v", base, boosted, want)
	}
}

func TestDrop(t *testing.T) {
	v := Vector{1, 1, 2, 3, 4, 5, 1, 1, 1, 1, 6}
	d := v.Drop(FCallers)
	if d[FCallers] != 0 {
		t.Error("drop did not zero feature")
	}
	if v[FCallers] != 2 {
		t.Error("drop mutated receiver")
	}
	for i := 0; i < Dim; i++ {
		if i != FCallers && d[i] != v[i] {
			t.Errorf("feature %d changed", i)
		}
	}
}

func TestVectorString(t *testing.T) {
	v := Vector{17, 1, 2, 3, 5, 6, 1, 1, 1, 1, 2}
	s := v.String()
	// The paper's fn16 example renders as [17,true,2,3,5,6,...].
	for _, want := range []string{"17", "true", "5", "6"} {
		if !strings.Contains(s, want) {
			t.Errorf("vector string %q missing %q", s, want)
		}
	}
}

func TestFeatureNamesComplete(t *testing.T) {
	for i, n := range FeatureNames {
		if n == "" {
			t.Errorf("feature %d unnamed", i)
		}
	}
}
