package evolve

// In-package tests of the reuse accounting behind DiffReport.ReusedFuncs and
// of the tier-2 alignment, which pairs functions through the function map of
// cfg.AlignReuse.

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
	withLib := func(path string, customs int, hash, libHash string) *loader.Target {
		return &loader.Target{
			Path:      path,
			Model:     stubModel(customs),
			Hash:      hashOf(hash),
			LibModels: map[string]*cfg.Model{"libc.so": libc},
			LibHashes: map[string]modelcache.Hash{"libc.so": hashOf(libHash)},
		}
	}
	// The old side: /bin/a (4 customs) and /bin/b (5 customs), both linking
	// libc v1 (3 customs).
	oldByPath := map[string]*TargetAnalysis{
		"/bin/a": {Target: withLib("/bin/a", 4, "a v1", "libc v1")},
		"/bin/b": {Target: withLib("/bin/b", 5, "b v1", "libc v1")},
	}
	// The changed /bin/b pairs two of its five functions.
	funcMaps := map[string]map[uint32]uint32{"/bin/b": {0x1000: 0x1000, 0x1010: 0x1010}}
	identical := withLib("/bin/a", 4, "a v1", "libc v1")
	changed := withLib("/bin/b", 5, "b v2", "libc v1")
	for _, tc := range []struct {
		name                string
		newSide             []*loader.Target
		wantReused, wantAll int
	}{
		// Every function of a byte-identical target, plus its library.
		{"identical target", []*loader.Target{identical}, 4 + 3, 4 + 3},
		// A changed target reuses what its function map pairs.
		{"changed target", []*loader.Target{changed}, 2 + 3, 5 + 3},
		// A target new in this version reuses nothing, not even a library
		// the old side had.
		{"no old counterpart", []*loader.Target{withLib("/bin/c", 2, "c v1", "libc v1")}, 0, 2 + 3},
		// The library shared by two targets counts once.
		{"unchanged library", []*loader.Target{identical, changed}, 4 + 2 + 3, 4 + 5 + 3},
		{"changed library", []*loader.Target{
			withLib("/bin/a", 4, "a v1", "libc v2"),
			withLib("/bin/b", 5, "b v2", "libc v2"),
		}, 4 + 2, 4 + 5 + 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var newSide []TargetAnalysis
			for _, nt := range tc.newSide {
				newSide = append(newSide, TargetAnalysis{Target: nt})
			}
			reused, total := reuseStats(oldByPath, newSide, funcMaps)
			if reused != tc.wantReused || total != tc.wantAll {
				t.Errorf("reuseStats = %d/%d, want %d/%d", reused, total, tc.wantReused, tc.wantAll)
			}
		})
	}
}

// shiftProg has an exported leaf, a worker calling it, and a main calling
// the worker; wedge inserts a function ahead of them, shifting every entry,
// and patchLeaf gives the leaf a different body.
func shiftProg(wedge, patchLeaf bool) *minic.Program {
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
	leaf := minic.Add(minic.Var("p0"), minic.Int(1))
	if patchLeaf {
		leaf = minic.Add(leaf, minic.Var("p0"))
	}
	funcs = append(funcs,
		&minic.Func{
			Name: "leaf", Exported: true, NParams: 1,
			Body: []minic.Stmt{minic.Return{E: leaf}},
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

func shiftTarget(t *testing.T, wedge, patchLeaf bool) *loader.Target {
	t.Helper()
	bin, err := minic.Link(shiftProg(wedge, patchLeaf), isa.ArchARM, nil)
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
	oldT, newT := shiftTarget(t, false, false), shiftTarget(t, true, false)
	funcMap := cfg.AlignReuse(oldT.Bin, oldT.Model, newT.Bin, newT.Model)
	al, err := align(context.Background(), oldT, newT, funcMap, infer.DefaultConfig())
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

	// A patched body fails validation, so the function map leaves the
	// exported leaf out and it pairs by name instead.
	patched := shiftTarget(t, true, true)
	funcMap = cfg.AlignReuse(oldT.Bin, oldT.Model, patched.Bin, patched.Model)
	leafE := entryOf(t, patched.Model, "leaf")
	if _, ok := funcMap[leafE]; ok {
		t.Fatal("the function map paired the patched leaf")
	}
	al, err = align(context.Background(), oldT, patched, funcMap, infer.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := al.newToOld[leafE]; got != entryOf(t, oldT.Model, "leaf") {
		t.Errorf("patched leaf paired with %#x, want the old leaf", got)
	}
	if k := al.kind[leafE]; k != MatchName {
		t.Errorf("patched leaf matched by %s, want name", k)
	}
}

// TestChurnKeepsDegraded checks that churn classification reports each
// alert as it was scanned: a degraded alert stays degraded whether it
// appeared, was fixed or persisted (reported from the new version).
func TestChurnKeepsDegraded(t *testing.T) {
	al := &alignment{newToOld: map[uint32]uint32{0x2000: 0x1000}}
	oldAlerts := []Alert{
		{Binary: "httpd", Site: 0x1010, Func: 0x1000, Sink: "system", Kind: "command-hijack", Source: "its"},
		{Binary: "httpd", Site: 0x1020, Func: 0x1000, Sink: "strcpy", Kind: "buffer-overflow", Source: "its", Degraded: true},
	}
	newAlerts := []Alert{
		{Binary: "httpd", Site: 0x2010, Func: 0x2000, Sink: "system", Kind: "command-hijack", Source: "its", Degraded: true},
		{Binary: "httpd", Site: 0x3010, Func: 0x3000, Sink: "sprintf", Kind: "buffer-overflow", Source: "cts-value", Degraded: true},
	}
	appeared, fixed, persisted := churnAlerts(al, oldAlerts, newAlerts)
	for _, tc := range []struct {
		name      string
		got, want []Alert
	}{
		{"appeared", appeared, newAlerts[1:]},
		{"fixed", fixed, oldAlerts[1:]},
		{"persisted", persisted, newAlerts[:1]},
	} {
		if len(tc.got) != len(tc.want) || tc.got[0] != tc.want[0] || !tc.got[0].Degraded {
			t.Errorf("%s = %+v, want %+v", tc.name, tc.got, tc.want)
		}
	}
}
