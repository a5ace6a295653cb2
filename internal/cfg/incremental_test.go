package cfg

// Tests for the ReusePlan contract: AlignReuse pairs the functions of a cold
// model of a new version with the unchanged functions of the old version,
// whether the new version is identical, tweaked in place, or shifted by an
// inserted function, and marks only raw-identical, unperturbed functions
// BFV-safe.

import (
	"testing"

	"fits/internal/binimg"
	"fits/internal/isa"
	"fits/internal/minic"
)

// evoProg builds a small program with an exported leaf, a loop worker using
// imports, and an if/else main; extra inserts a function ahead of the others,
// shifting every later entry.
func evoProg(bound int32, extra bool) *minic.Program {
	var funcs []*minic.Func
	if extra {
		funcs = append(funcs, &minic.Func{
			Name: "wedge", NParams: 1,
			Body: []minic.Stmt{minic.Return{E: minic.Add(minic.Var("p0"), minic.Int(7))}},
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
				minic.Let{Name: "i", E: minic.Int(0)},
				minic.While{
					Cond: minic.Cond{Op: minic.Lt, L: minic.Var("i"), R: minic.Int(bound)},
					Body: []minic.Stmt{
						minic.Assign{Name: "i", E: minic.Add(minic.Var("i"), minic.Int(1))},
					},
				},
				minic.ExprStmt{E: minic.Call{Name: "strcpy", Args: []minic.Expr{minic.Var("p0"), minic.Var("i")}}},
				minic.Return{E: minic.Call{Name: "leaf", Args: []minic.Expr{minic.Var("i")}}},
			},
		},
		&minic.Func{
			Name: "main", NParams: 1,
			Body: []minic.Stmt{
				minic.ExprStmt{E: minic.Call{Name: "recv", Args: []minic.Expr{minic.Int(0)}}},
				minic.If{
					Cond: minic.Cond{Op: minic.Gt, L: minic.Var("p0"), R: minic.Int(0)},
					Then: []minic.Stmt{minic.Return{E: minic.Call{Name: "worker", Args: []minic.Expr{minic.Var("p0")}}}},
				},
				minic.Return{E: minic.Int(0)},
			},
		},
	)
	return &minic.Program{Name: "evo", Funcs: funcs}
}

// alignNew builds newBin cold and aligns it against the old version.
func alignNew(t *testing.T, oldBin *binimg.Binary, oldModel *Model, newBin *binimg.Binary, opts Options) (*Model, *ReusePlan) {
	t.Helper()
	m, err := Build(newBin, opts)
	if err != nil {
		t.Fatal(err)
	}
	return m, AlignReuse(oldBin, oldModel, newBin, m)
}

func countCustoms(m *Model) int {
	n := 0
	for _, f := range m.Funcs {
		if !f.ImportStub {
			n++
		}
	}
	return n
}

func TestReuseIdenticalBinary(t *testing.T) {
	for _, arch := range []isa.Arch{isa.ArchARM, isa.ArchMIPS} {
		bin := link(t, evoProg(5, false), arch)
		cold := build(t, bin)
		inc, plan := alignNew(t, bin, cold, bin, Options{})
		customs := countCustoms(cold)
		if len(plan.FuncMap) != customs {
			t.Errorf("arch %v: reused %d of %d custom funcs", arch, len(plan.FuncMap), customs)
		}
		for entry, f := range inc.Funcs {
			if f.ImportStub {
				continue
			}
			if plan.FuncMap[entry] != entry {
				t.Errorf("arch %v: %s paired with %#x, want itself", arch, f.Name, plan.FuncMap[entry])
			}
			if !plan.rawEq[entry] {
				t.Errorf("arch %v: %s not raw-identical on identical binary", arch, f.Name)
			}
			if !plan.BFVSafe[entry] {
				t.Errorf("arch %v: %s not BFV-safe on identical binary", arch, f.Name)
			}
		}
	}
}

func TestReuseTweakedConstant(t *testing.T) {
	// Changing only a loop bound rewrites one Movi immediate in place: every
	// function still validates (non-control immediates are free), and only
	// the tweaked function loses its raw-identical status.
	oldBin := link(t, evoProg(5, false), isa.ArchARM)
	newBin := link(t, evoProg(9, false), isa.ArchARM)
	oldModel := build(t, oldBin)
	inc, plan := alignNew(t, oldBin, oldModel, newBin, Options{})
	if len(plan.FuncMap) != countCustoms(inc) {
		t.Errorf("reused %d of %d after in-place tweak", len(plan.FuncMap), countCustoms(inc))
	}
	worker := funcByName(t, inc, "worker")
	if plan.rawEq[worker.Entry] {
		t.Error("tweaked function reported raw-identical")
	}
	if plan.BFVSafe[worker.Entry] {
		t.Error("tweaked function reported BFV-safe")
	}
	leaf := funcByName(t, inc, "leaf")
	if !plan.rawEq[leaf.Entry] {
		t.Error("untouched leaf not raw-identical")
	}
}

func TestReuseShiftedByInsertedFunction(t *testing.T) {
	// Inserting a function ahead of the others shifts every later entry and
	// every stub; shared import/export deltas must recover the unchanged
	// functions at their new addresses.
	oldBin := link(t, evoProg(5, false), isa.ArchARM)
	newBin := link(t, evoProg(5, true), isa.ArchARM)
	oldModel := build(t, oldBin)
	inc, plan := alignNew(t, oldBin, oldModel, newBin, Options{})
	// leaf, worker and main exist unchanged, just relocated.
	if len(plan.FuncMap) < 3 {
		t.Errorf("reused %d funcs, want >= 3", len(plan.FuncMap))
	}
	// Relocated code can never be raw-identical, so no BFV reuse.
	leaf := funcByName(t, inc, "leaf")
	oldLeaf := funcByName(t, oldModel, "leaf")
	if plan.FuncMap[leaf.Entry] != oldLeaf.Entry {
		t.Errorf("shifted leaf paired with %#x, want %#x", plan.FuncMap[leaf.Entry], oldLeaf.Entry)
	}
	if plan.rawEq[leaf.Entry] {
		t.Error("shifted function reported raw-identical")
	}
	if len(plan.BFVSafe) != 0 {
		t.Errorf("BFVSafe = %d entries on shifted binary, want 0", len(plan.BFVSafe))
	}
}

func TestReuseWithIndirectResolution(t *testing.T) {
	// A model with resolved indirect calls pairs in full against itself.
	prog := func() *minic.Program {
		return &minic.Program{
			Name: "t",
			Globals: []*minic.Global{{
				Name: "tbl", Size: 4, Init: make([]byte, 4),
				Ptrs: []minic.PtrInit{{Off: 0, FuncName: "h"}},
			}},
			Funcs: []*minic.Func{
				{Name: "h", NParams: 1, Body: []minic.Stmt{minic.Return{E: minic.Var("p0")}}},
				{Name: "main", Body: []minic.Stmt{
					minic.Return{E: minic.CallInd{Table: "tbl", Index: minic.Int(0), Args: []minic.Expr{minic.Int(3)}}},
				}},
			},
		}
	}
	bin := link(t, prog(), isa.ArchARM)
	var hAddr uint32
	for _, f := range bin.Funcs {
		if f.Name == "h" {
			hAddr = f.Addr
		}
	}
	resolver := func(b *binimg.Binary, f *Function, site CallSite) []uint32 {
		return []uint32{hAddr}
	}
	cold, err := Build(bin, Options{Resolver: resolver})
	if err != nil {
		t.Fatal(err)
	}
	_, plan := alignNew(t, bin, cold, bin, Options{Resolver: resolver})
	if len(plan.FuncMap) != countCustoms(cold) {
		t.Errorf("reused %d of %d with resolver", len(plan.FuncMap), countCustoms(cold))
	}
}

func TestReuseSkipsJumpTableFunctions(t *testing.T) {
	// Functions holding computed jumps depend on resolver state; they are
	// never paired.
	prog := &minic.Program{
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
					Default: []minic.Stmt{minic.StoreStmt{Size: 4, Addr: minic.GlobalRef("out"), Val: minic.Int(9)}},
				},
				minic.Return{E: minic.Int(0)},
			},
		}, {
			Name: "plain", NParams: 1,
			Body: []minic.Stmt{minic.Return{E: minic.Add(minic.Var("p0"), minic.Int(2))}},
		}},
	}
	bin := link(t, prog, isa.ArchARM)
	resolver := func(b *binimg.Binary, f *Function, addr uint32) []uint32 {
		var out []uint32
		base := b.Rodata.Addr
		for off := uint32(0); off+4 <= uint32(len(b.Rodata.Data)); off += 4 {
			if w, ok := b.WordAt(base + off); ok && b.Text.Contains(w) && (w-b.Text.Addr)%isa.Width == 0 {
				out = append(out, w)
			}
		}
		return out
	}
	cold, err := Build(bin, Options{JumpResolver: resolver})
	if err != nil {
		t.Fatal(err)
	}
	inc, plan := alignNew(t, bin, cold, bin, Options{JumpResolver: resolver})
	router := funcByName(t, inc, "router")
	if _, reused := plan.FuncMap[router.Entry]; reused {
		t.Error("jump-table function was reused")
	}
	plain := funcByName(t, inc, "plain")
	if _, reused := plan.FuncMap[plain.Entry]; !reused {
		t.Error("plain function was not reused")
	}
}
