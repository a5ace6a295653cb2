package dataflow

import (
	"reflect"
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

// anchorsByName recognizes the given import names as 2-ary anchors.
func anchorsByName(names ...string) AnchorFunc {
	set := map[string]bool{}
	for _, n := range names {
		set[n] = true
	}
	return func(cs cfg.CallSite) AnchorInfo {
		if set[cs.ImportName] {
			return AnchorInfo{Arity: 2, Anchor: true}
		}
		return AnchorInfo{}
	}
}

func oneFunc(name string, nparams int, body []minic.Stmt) *minic.Program {
	return &minic.Program{Name: "t", Funcs: []*minic.Func{{Name: name, NParams: nparams, Body: body}}}
}

func TestParamControlsBranch(t *testing.T) {
	p := oneFunc("f", 1, []minic.Stmt{
		minic.If{Cond: minic.Cond{Op: minic.Gt, L: minic.Var("p0"), R: minic.Int(3)},
			Then: []minic.Stmt{minic.Return{E: minic.Int(1)}}},
		minic.Return{E: minic.Int(0)},
	})
	bin, m := buildModel(t, p)
	facts := Analyze(fnNamed(t, bin, m, "f"), nil)
	if !facts.ParamControlsBranch {
		t.Error("branch control not detected")
	}
	if facts.ParamControlsLoop {
		t.Error("loop control falsely detected")
	}
}

func TestParamControlsLoop(t *testing.T) {
	p := oneFunc("f", 1, []minic.Stmt{
		minic.Let{Name: "i", E: minic.Int(0)},
		minic.While{Cond: minic.Cond{Op: minic.Lt, L: minic.Var("i"), R: minic.Var("p0")},
			Body: []minic.Stmt{minic.Assign{Name: "i", E: minic.Add(minic.Var("i"), minic.Int(1))}}},
		minic.Return{E: minic.Var("i")},
	})
	bin, m := buildModel(t, p)
	facts := Analyze(fnNamed(t, bin, m, "f"), nil)
	if !facts.ParamControlsLoop || !facts.ParamControlsBranch {
		t.Errorf("facts = %+v", facts)
	}
}

func TestConstantBranchNotParamControlled(t *testing.T) {
	p := oneFunc("f", 1, []minic.Stmt{
		minic.Let{Name: "x", E: minic.Int(5)},
		minic.If{Cond: minic.Cond{Op: minic.Gt, L: minic.Var("x"), R: minic.Int(3)},
			Then: []minic.Stmt{minic.Return{E: minic.Int(1)}}},
		minic.Return{E: minic.Int(0)},
	})
	bin, m := buildModel(t, p)
	facts := Analyze(fnNamed(t, bin, m, "f"), nil)
	if facts.ParamControlsBranch || facts.ParamControlsLoop {
		t.Errorf("facts = %+v", facts)
	}
}

func TestParamThroughLocalAndGlobal(t *testing.T) {
	p := &minic.Program{
		Name:    "t",
		Globals: []*minic.Global{{Name: "g", Size: 4}},
		Funcs: []*minic.Func{{Name: "f", NParams: 1, Body: []minic.Stmt{
			minic.Let{Name: "x", E: minic.Add(minic.Var("p0"), minic.Int(1))},
			minic.StoreStmt{Size: 4, Addr: minic.GlobalRef("g"), Val: minic.Var("x")},
			minic.If{Cond: minic.Cond{Op: minic.Ne, L: minic.LoadW(minic.GlobalRef("g")), R: minic.Int(0)},
				Then: []minic.Stmt{minic.Return{E: minic.Int(1)}}},
			minic.Return{E: minic.Int(0)},
		}}},
	}
	bin, m := buildModel(t, p)
	facts := Analyze(fnNamed(t, bin, m, "f"), nil)
	if !facts.ParamControlsBranch {
		t.Error("taint lost through local and global")
	}
}

func TestParamToAnchor(t *testing.T) {
	p := oneFunc("f", 2, []minic.Stmt{
		minic.ExprStmt{E: minic.Call{Name: "memcmp_like", Args: []minic.Expr{minic.Var("p0"), minic.Var("p1")}}},
		minic.Return{E: minic.Int(0)},
	})
	bin, m := buildModel(t, p)
	facts := Analyze(fnNamed(t, bin, m, "f"), anchorsByName("memcmp_like"))
	if !facts.ParamToAnchor {
		t.Error("param-to-anchor not detected")
	}
	// With no anchors configured the fact must stay false.
	facts = Analyze(fnNamed(t, bin, m, "f"), anchorsByName("other"))
	if facts.ParamToAnchor {
		t.Error("param-to-anchor falsely detected")
	}
}

func TestConstArgToAnchorNotParam(t *testing.T) {
	p := oneFunc("f", 1, []minic.Stmt{
		minic.ExprStmt{E: minic.Call{Name: "memcmp_like", Args: []minic.Expr{minic.Str("x"), minic.Int(1)}}},
		minic.Return{E: minic.Var("p0")},
	})
	bin, m := buildModel(t, p)
	facts := Analyze(fnNamed(t, bin, m, "f"), anchorsByName("memcmp_like"))
	if facts.ParamToAnchor {
		t.Error("constant args flagged as parameter flow")
	}
}

func TestTaintedReturn(t *testing.T) {
	p := oneFunc("f", 1, []minic.Stmt{minic.Return{E: minic.Add(minic.Var("p0"), minic.Int(1))}})
	bin, m := buildModel(t, p)
	if facts := Analyze(fnNamed(t, bin, m, "f"), nil); !facts.TaintedReturn {
		t.Error("tainted return not detected")
	}
	p2 := oneFunc("g", 1, []minic.Stmt{minic.Return{E: minic.Int(7)}})
	bin2, m2 := buildModel(t, p2)
	if facts := Analyze(fnNamed(t, bin2, m2, "g"), nil); facts.TaintedReturn {
		t.Error("constant return flagged tainted")
	}
}

func TestDerefTaint(t *testing.T) {
	// Reading memory through a parameter-derived pointer is tainted.
	p := oneFunc("f", 1, []minic.Stmt{minic.Return{E: minic.LoadB(minic.Add(minic.Var("p0"), minic.Int(2)))}})
	bin, m := buildModel(t, p)
	if facts := Analyze(fnNamed(t, bin, m, "f"), nil); !facts.TaintedReturn {
		t.Error("deref taint lost")
	}
}

func TestCalleeReturnPropagatesArgTaint(t *testing.T) {
	p := &minic.Program{Name: "t", Funcs: []*minic.Func{
		{Name: "id", NParams: 1, Body: []minic.Stmt{minic.Return{E: minic.Var("p0")}}},
		{Name: "f", NParams: 1, Body: []minic.Stmt{
			minic.Return{E: minic.Call{Name: "id", Args: []minic.Expr{minic.Var("p0")}}},
		}},
	}}
	bin, m := buildModel(t, p)
	if facts := Analyze(fnNamed(t, bin, m, "f"), nil); !facts.TaintedReturn {
		t.Error("call-return taint lost")
	}
}

func callSiteProgram() *minic.Program {
	return &minic.Program{
		Name: "t",
		Globals: []*minic.Global{{
			Name: "keyslot", Size: 4, Init: make([]byte, 4),
			Ptrs: []minic.PtrInit{{Off: 0, Str: "password"}},
		}},
		Funcs: []*minic.Func{
			{Name: "getvar", NParams: 2, Body: []minic.Stmt{minic.Return{E: minic.Var("p0")}}},
			{Name: "caller1", NParams: 1, Body: []minic.Stmt{
				minic.Return{E: minic.Call{Name: "getvar", Args: []minic.Expr{minic.Str("username"), minic.Var("p0")}}},
			}},
			{Name: "caller2", Body: []minic.Stmt{
				minic.ExprStmt{E: minic.Call{Name: "getvar", Args: []minic.Expr{minic.Str("lang"), minic.Int(3)}}},
				// Data-section constant whose slot points at "password":
				// the GOT-style indirection case of Table 2.
				minic.ExprStmt{E: minic.Call{Name: "getvar", Args: []minic.Expr{minic.GlobalRef("keyslot"), minic.Int(3)}}},
				minic.Return{E: minic.Int(0)},
			}},
		},
	}
}

func TestCallSiteStrings(t *testing.T) {
	bin, m := buildModel(t, callSiteProgram())
	fn := fnNamed(t, bin, m, "getvar")
	facts := CallSiteStrings(bin, m, fn.Entry, fn.Params, nil)
	if !facts.ArgsContainString {
		t.Fatal("string arguments not detected")
	}
	want := []string{"lang", "password", "username"}
	if !reflect.DeepEqual(facts.Strings, want) {
		t.Errorf("strings = %v, want %v", facts.Strings, want)
	}
}

func TestNoStringArgs(t *testing.T) {
	p := &minic.Program{Name: "t", Funcs: []*minic.Func{
		{Name: "callee", NParams: 1, Body: []minic.Stmt{minic.Return{E: minic.Var("p0")}}},
		{Name: "caller", NParams: 1, Body: []minic.Stmt{
			minic.Return{E: minic.Call{Name: "callee", Args: []minic.Expr{minic.Add(minic.Var("p0"), minic.Int(1))}}},
		}},
	}}
	bin, m := buildModel(t, p)
	callee := fnNamed(t, bin, m, "callee")
	facts := CallSiteStrings(bin, m, callee.Entry, callee.Params, nil)
	if facts.ArgsContainString || len(facts.Strings) != 0 {
		t.Errorf("facts = %+v", facts)
	}
}

func TestBacktrackRegisterDirect(t *testing.T) {
	bin, m := buildModel(t, callSiteProgram())
	getvar := fnNamed(t, bin, m, "getvar")
	caller1 := fnNamed(t, bin, m, "caller1")
	var site *cfg.CallSite
	for i := range caller1.Calls {
		if caller1.Calls[i].Target == getvar.Entry {
			site = &caller1.Calls[i]
		}
	}
	if site == nil {
		t.Fatal("call site not found")
	}
	c, ok := BacktrackRegister(caller1, site.Addr, isa.R0)
	if !ok {
		t.Fatal("backtrack failed")
	}
	if s, ok := bin.CString(c); !ok || s != "username" {
		t.Errorf("constant %#x -> %q, %v", c, s, ok)
	}
	// The second argument comes from a parameter (stack load): must fail.
	if _, ok := BacktrackRegister(caller1, site.Addr, isa.R1); ok {
		t.Error("stack-loaded argument should not backtrack to a constant")
	}
}

func TestClassifyStringConstant(t *testing.T) {
	bin, _ := buildModel(t, callSiteProgram())
	// rodata string
	addr := findStr(bin, "username")
	if addr == 0 {
		t.Fatal("rodata string not found")
	}
	if s, ok := ClassifyStringConstant(bin, addr); !ok || s != "username" {
		t.Errorf("rodata classify = %q, %v", s, ok)
	}
	// text address is not a string
	if _, ok := ClassifyStringConstant(bin, bin.Text.Addr); ok {
		t.Error("text classified as string")
	}
	// arbitrary integer is not a string
	if _, ok := ClassifyStringConstant(bin, 0x12); ok {
		t.Error("small integer classified as string")
	}
}

func findStr(bin *binimg.Binary, s string) uint32 {
	data := bin.Rodata.Data
	for i := 0; i+len(s) < len(data); i++ {
		if string(data[i:i+len(s)]) == s && data[i+len(s)] == 0 {
			return bin.Rodata.Addr + uint32(i)
		}
	}
	return 0
}

func TestPrintable(t *testing.T) {
	if printable([]byte("")) || printable([]byte("a\x01b")) || printable([]byte("héllo")) {
		t.Error("printable accepts junk")
	}
	if !printable([]byte("user_name-42 ok")) {
		t.Error("printable rejects plain ASCII")
	}
}

func TestParamMask(t *testing.T) {
	if ParamMask(0).Has() {
		t.Error("zero mask has bits")
	}
	if !ParamMask(0b10).Has() {
		t.Error("nonzero mask reports empty")
	}
}

func TestMergeAVals(t *testing.T) {
	a := AVal{Kind: KConst, C: 4, Taint: 1}
	b := AVal{Kind: KConst, C: 4, Taint: 2}
	if got := merge(a, b); got.Kind != KConst || got.C != 4 || got.Taint != 3 {
		t.Errorf("merge same = %+v", got)
	}
	c := AVal{Kind: KConst, C: 5}
	if got := merge(a, c); got.Kind != KTop || got.Taint != 1 {
		t.Errorf("merge diff = %+v", got)
	}
}
