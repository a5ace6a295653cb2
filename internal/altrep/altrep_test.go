package altrep

import (
	"context"
	"math"
	"testing"

	"fits/internal/binimg"
	"fits/internal/cfg"
	"fits/internal/isa"
	"fits/internal/loader"
	"fits/internal/minic"
	"fits/internal/synth"
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

func sampleProgram() *minic.Program {
	return &minic.Program{Name: "t", Funcs: []*minic.Func{
		{Name: "looper", NParams: 1, Body: []minic.Stmt{
			minic.Let{Name: "i", E: minic.Int(0)},
			minic.While{Cond: minic.Cond{Op: minic.Lt, L: minic.Var("i"), R: minic.Var("p0")},
				Body: []minic.Stmt{
					minic.ExprStmt{E: minic.Call{Name: "strlen", Args: []minic.Expr{minic.Str("x")}}},
					minic.Assign{Name: "i", E: minic.Add(minic.Var("i"), minic.Int(1))},
				}},
			minic.Return{E: minic.Var("i")},
		}},
		{Name: "flat", Body: []minic.Stmt{minic.Return{E: minic.Int(1)}}},
	}}
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
	t.Fatalf("%q not found", name)
	return nil
}

func TestAugmentedCFGShape(t *testing.T) {
	bin, m := buildModel(t, sampleProgram())
	looper := AugmentedCFG(bin, m, fnNamed(t, bin, m, "looper"))
	flat := AugmentedCFG(bin, m, fnNamed(t, bin, m, "flat"))
	if looper[0] <= flat[0] {
		t.Error("looper should have more blocks")
	}
	if looper[10] != 1 || flat[10] != 0 {
		t.Errorf("loop counts = %v, %v", looper[10], flat[10])
	}
	if looper == flat {
		t.Error("distinct functions produced identical vectors")
	}
}

func TestAttributedCFGDeterministicAndBounded(t *testing.T) {
	bin, m := buildModel(t, sampleProgram())
	f := fnNamed(t, bin, m, "looper")
	a := AttributedCFG(bin, m, f)
	b := AttributedCFG(bin, m, f)
	if a != b {
		t.Error("embedding not deterministic")
	}
	// tanh-bounded per block: |component| <= #blocks.
	n := float64(f.NumBlocks())
	for d, v := range a {
		if math.Abs(v) > n+1e-9 {
			t.Errorf("dim %d = %g exceeds block count %g", d, v, n)
		}
	}
	if AttributedCFG(bin, m, &cfg.Function{Blocks: map[uint32]*cfg.BasicBlock{}}) != ([11]float64{}) {
		t.Error("empty function should embed to zero")
	}
}

func TestAttributedCFGSensitiveToStructure(t *testing.T) {
	bin, m := buildModel(t, sampleProgram())
	a := AttributedCFG(bin, m, fnNamed(t, bin, m, "looper"))
	b := AttributedCFG(bin, m, fnNamed(t, bin, m, "flat"))
	if a == b {
		t.Error("different structures embedded identically")
	}
}

func TestFixedWeightsInRange(t *testing.T) {
	for i := 0; i < 11; i++ {
		for j := 0; j < 11; j++ {
			for _, w := range []float64{w1(i, j), w2(i, j)} {
				if w < -1 || w >= 1 {
					t.Fatalf("weight out of range: %g", w)
				}
			}
		}
	}
	if w1(0, 1) == w1(1, 0) && w1(0, 2) == w1(2, 0) && w1(3, 1) == w1(1, 3) {
		t.Error("weights look symmetric; expected arbitrary")
	}
}

func TestTanh(t *testing.T) {
	if tanh(0) != 0 {
		t.Errorf("tanh(0) = %g", tanh(0))
	}
	if tanh(100) != 1 || tanh(-100) != -1 {
		t.Error("tanh saturation wrong")
	}
	if v := tanh(1); math.Abs(v-0.7616) > 0.01 {
		t.Errorf("tanh(1) = %g", v)
	}
	if v := tanh(-1); math.Abs(v+0.7616) > 0.01 {
		t.Errorf("tanh(-1) = %g", v)
	}
}

func TestBootStompFindsNothingOnCorpusSample(t *testing.T) {
	s, err := synth.Generate(synth.Dataset()[0])
	if err != nil {
		t.Fatal(err)
	}
	res, err := loader.LoadContext(context.Background(), s.Packed, loader.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, tg := range res.Targets {
		for _, e := range BootStomp(tg.Bin, tg.Model) {
			if s.Manifest.IsITS(tg.Bin.Name, e) {
				t.Error("keyword heuristic accidentally found a true ITS")
			}
		}
	}
}

func TestBootStompMatchesKeywords(t *testing.T) {
	p := &minic.Program{Name: "t", Funcs: []*minic.Func{
		{Name: "boots", Body: []minic.Stmt{
			minic.ExprStmt{E: minic.Call{Name: "printf", Args: []minic.Expr{
				minic.Str("entering fastboot mode"), minic.Int(0), minic.Int(0)}}},
			minic.Return{E: minic.Int(0)},
		}},
		{Name: "plain", Body: []minic.Stmt{
			minic.ExprStmt{E: minic.Call{Name: "printf", Args: []minic.Expr{
				minic.Str("hello world"), minic.Int(0), minic.Int(0)}}},
			minic.Return{E: minic.Int(0)},
		}},
	}}
	bin, m := buildModel(t, p)
	hits := BootStomp(bin, m)
	bootsEntry := uint32(0)
	for _, s := range bin.Funcs {
		if s.Name == "boots" {
			bootsEntry = s.Addr
		}
	}
	if len(hits) != 1 || hits[0] != bootsEntry {
		t.Errorf("hits = %v, want [%#x]", hits, bootsEntry)
	}
}
