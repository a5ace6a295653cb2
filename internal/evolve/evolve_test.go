package evolve

// In-package tests of the reuse accounting behind DiffReport.ReusedFuncs and
// of the tier-2 alignment, which pairs functions through the function map of
// the loader's reuse plan.

import (
	"context"
	"testing"

	"fits/internal/cfg"
	"fits/internal/infer"
	"fits/internal/isa"
	"fits/internal/loader"
	"fits/internal/minic"
	"fits/internal/modelcache"
)

// stubModel is a model with customs non-stub functions and one import stub.
func stubModel(customs int) *cfg.Model {
	m := &cfg.Model{Funcs: map[uint32]*cfg.Function{}}
	for i := 0; i < customs; i++ {
		e := uint32(0x1000 + 0x10*i)
		m.Funcs[e] = &cfg.Function{Entry: e}
	}
	m.Funcs[0x100] = &cfg.Function{Entry: 0x100, ImportStub: true}
	return m
}

func hashOf(s string) modelcache.Hash { return modelcache.HashBytes([]byte(s)) }

func TestReuseStats(t *testing.T) {
	libc := stubModel(3)
	withLib := func(path string, customs int, libHash string) *loader.Target {
		return &loader.Target{
			Path:      path,
			Model:     stubModel(customs),
			Hash:      hashOf(path),
			LibModels: map[string]*cfg.Model{"libc.so": libc},
			LibHashes: map[string]modelcache.Hash{"libc.so": hashOf(libHash)},
		}
	}
	oldLib := "libc v1"
	for _, tc := range []struct {
		name                string
		newLib              string
		wantReused, wantAll int
	}{
		// 4 identical + 2 paired of 5 + the shared library once (3).
		{"unchanged library", oldLib, 4 + 2 + 3, 4 + 5 + 3},
		{"changed library", "libc v2", 4 + 2, 4 + 5 + 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			oldA := withLib("/bin/a", 4, oldLib)
			oldB := withLib("/bin/b", 5, oldLib)
			newA := withLib("/bin/a", 4, tc.newLib)
			newA.Prev = &loader.PrevTarget{Target: oldA, Identical: true}
			newB := withLib("/bin/b", 5, tc.newLib)
			newB.Prev = &loader.PrevTarget{Target: oldB, Plan: &cfg.ReusePlan{FuncMap: map[uint32]uint32{0x1000: 0x1000, 0x1010: 0x1010}}}
			reused, total := reuseStats([]TargetAnalysis{{Target: newA}, {Target: newB}})
			if reused != tc.wantReused || total != tc.wantAll {
				t.Errorf("reuseStats = %d/%d, want %d/%d", reused, total, tc.wantReused, tc.wantAll)
			}
		})
	}

	// A target without a previous version reuses nothing.
	fresh := withLib("/bin/c", 2, oldLib)
	if reused, total := reuseStats([]TargetAnalysis{{Target: fresh}}); reused != 0 || total != 2+3 {
		t.Errorf("reuseStats without a previous version = %d/%d, want 0/5", reused, total)
	}
}

// shiftProg has an exported leaf, a worker calling it, and a main calling
// the worker; wedge inserts a function ahead of them, shifting every entry.
func shiftProg(wedge bool) *minic.Program {
	var funcs []*minic.Func
	if wedge {
		funcs = append(funcs, &minic.Func{
			Name: "wedge", NParams: 1,
			Body: []minic.Stmt{
				minic.ExprStmt{E: minic.Call{Name: "recv", Args: []minic.Expr{minic.Var("p0")}}},
				minic.ExprStmt{E: minic.Call{Name: "recv", Args: []minic.Expr{minic.Int(1)}}},
				minic.Return{E: minic.Int(0)},
			},
		})
	}
	funcs = append(funcs,
		&minic.Func{
			Name: "leaf", Exported: true, NParams: 1,
			Body: []minic.Stmt{minic.Return{E: minic.Add(minic.Var("p0"), minic.Int(1))}},
		},
		&minic.Func{
			Name: "worker", NParams: 1,
			Body: []minic.Stmt{
				minic.ExprStmt{E: minic.Call{Name: "strcpy", Args: []minic.Expr{minic.Var("p0"), minic.Int(4)}}},
				minic.Return{E: minic.Call{Name: "leaf", Args: []minic.Expr{minic.Var("p0")}}},
			},
		},
		&minic.Func{
			Name: "main", NParams: 1,
			Body: []minic.Stmt{
				minic.ExprStmt{E: minic.Call{Name: "recv", Args: []minic.Expr{minic.Int(0)}}},
				minic.Return{E: minic.Call{Name: "worker", Args: []minic.Expr{minic.Var("p0")}}},
			},
		},
	)
	return &minic.Program{Name: "shift", Funcs: funcs}
}

func shiftTarget(t *testing.T, wedge bool) *loader.Target {
	t.Helper()
	bin, err := minic.Link(shiftProg(wedge), isa.ArchARM, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := cfg.Build(bin, cfg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return &loader.Target{Path: "/bin/shift", Bin: bin, Model: m, Hash: modelcache.HashBytes(bin.Text.Data)}
}

func entryOf(t *testing.T, m *cfg.Model, name string) uint32 {
	t.Helper()
	for _, f := range m.CustomFuncs() {
		if f.Name == name {
			return f.Entry
		}
	}
	t.Fatalf("no function %q", name)
	return 0
}

func TestAlignPairsShiftedFunctionsThroughPlan(t *testing.T) {
	oldT, newT := shiftTarget(t, false), shiftTarget(t, true)
	plan := cfg.AlignReuse(oldT.Bin, oldT.Model, newT.Bin, newT.Model)
	newT.Prev = &loader.PrevTarget{Target: oldT, Plan: plan}
	al, err := align(context.Background(), oldT, newT, infer.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"leaf", "worker", "main"} {
		oldE, newE := entryOf(t, oldT.Model, name), entryOf(t, newT.Model, name)
		if oldE == newE {
			t.Fatalf("%s did not move; the wedge must shift it", name)
		}
		if got, ok := al.newToOld[newE]; !ok || got != oldE {
			t.Errorf("%s at %#x paired with %#x (%v), want %#x", name, newE, got, ok, oldE)
		}
		if al.kind[newE] != MatchReuse {
			t.Errorf("%s matched by %s, want reuse", name, al.kind[newE])
		}
	}
	if _, ok := al.newToOld[entryOf(t, newT.Model, "wedge")]; ok {
		t.Error("wedge, new in this version, was paired")
	}

	// Without the plan the exported leaf still pairs, but by name.
	newT.Prev = nil
	al, err = align(context.Background(), oldT, newT, infer.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if k := al.kind[entryOf(t, newT.Model, "leaf")]; k != MatchName {
		t.Errorf("leaf without a plan matched by %s, want name", k)
	}
}
