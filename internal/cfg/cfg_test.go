package cfg

import (
	"strings"
	"testing"

	"fits/internal/binimg"
	"fits/internal/isa"
	"fits/internal/minic"
)

func link(t *testing.T, p *minic.Program, arch isa.Arch) *binimg.Binary {
	t.Helper()
	bin, err := minic.Link(p, arch, nil)
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

func build(t *testing.T, bin *binimg.Binary) *Model {
	t.Helper()
	m, err := Build(bin, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func funcByName(t *testing.T, m *Model, name string) *Function {
	t.Helper()
	for _, f := range m.Funcs {
		if f.Name == name {
			return f
		}
	}
	t.Fatalf("function %q not found; have %d funcs", name, len(m.Funcs))
	return nil
}

func TestStraightLineFunction(t *testing.T) {
	p := &minic.Program{Name: "t", Funcs: []*minic.Func{{
		Name: "main", NParams: 2,
		Body: []minic.Stmt{minic.Return{E: minic.Add(minic.Var("p0"), minic.Var("p1"))}},
	}}}
	m := build(t, link(t, p, isa.ArchARM))
	f := funcByName(t, m, "main")
	if f.NumBlocks() != 1 {
		t.Errorf("blocks = %d, want 1", f.NumBlocks())
	}
	if f.HasLoop() {
		t.Error("unexpected loop")
	}
	if f.Params != 2 {
		t.Errorf("params = %d, want 2", f.Params)
	}
}

func TestIfElseShape(t *testing.T) {
	p := &minic.Program{Name: "t", Funcs: []*minic.Func{{
		Name: "main", NParams: 1,
		Body: []minic.Stmt{
			minic.If{
				Cond: minic.Cond{Op: minic.Gt, L: minic.Var("p0"), R: minic.Int(0)},
				Then: []minic.Stmt{minic.Return{E: minic.Int(1)}},
				Else: []minic.Stmt{minic.Return{E: minic.Int(2)}},
			},
		},
	}}}
	m := build(t, link(t, p, isa.ArchARM))
	f := funcByName(t, m, "main")
	if f.NumBlocks() < 3 {
		t.Errorf("blocks = %d, want >= 3", f.NumBlocks())
	}
	if f.HasLoop() {
		t.Error("unexpected loop in if/else")
	}
	// The entry block must end with a conditional branch having two succs.
	entry := f.Blocks[f.Entry]
	if entry == nil {
		t.Fatal("no entry block")
	}
	var condBlock *BasicBlock
	for _, b := range f.BlocksInOrder() {
		if len(b.Succs) == 2 {
			condBlock = b
		}
	}
	if condBlock == nil {
		t.Error("no two-successor block for the branch")
	}
}

func TestWhileLoopDetected(t *testing.T) {
	p := &minic.Program{Name: "t", Funcs: []*minic.Func{{
		Name: "main", NParams: 1,
		Body: []minic.Stmt{
			minic.Let{Name: "i", E: minic.Int(0)},
			minic.While{
				Cond: minic.Cond{Op: minic.Lt, L: minic.Var("i"), R: minic.Var("p0")},
				Body: []minic.Stmt{minic.Assign{Name: "i", E: minic.Add(minic.Var("i"), minic.Int(1))}},
			},
			minic.Return{E: minic.Var("i")},
		},
	}}}
	m := build(t, link(t, p, isa.ArchARM))
	f := funcByName(t, m, "main")
	if !f.HasLoop() {
		t.Fatal("loop not detected")
	}
	lp := f.Loops[0]
	if !lp.Body[lp.Head] {
		t.Error("loop body must contain head")
	}
	if len(lp.Body) < 2 {
		t.Errorf("loop body size = %d, want >= 2", len(lp.Body))
	}
}

func TestNestedLoopsCount(t *testing.T) {
	inner := minic.While{
		Cond: minic.Cond{Op: minic.Lt, L: minic.Var("j"), R: minic.Int(10)},
		Body: []minic.Stmt{minic.Assign{Name: "j", E: minic.Add(minic.Var("j"), minic.Int(1))}},
	}
	p := &minic.Program{Name: "t", Funcs: []*minic.Func{{
		Name: "main",
		Body: []minic.Stmt{
			minic.Let{Name: "i", E: minic.Int(0)},
			minic.Let{Name: "j", E: minic.Int(0)},
			minic.While{
				Cond: minic.Cond{Op: minic.Lt, L: minic.Var("i"), R: minic.Int(10)},
				Body: []minic.Stmt{
					minic.Assign{Name: "j", E: minic.Int(0)},
					inner,
					minic.Assign{Name: "i", E: minic.Add(minic.Var("i"), minic.Int(1))},
				},
			},
			minic.Return{E: minic.Int(0)},
		},
	}}}
	m := build(t, link(t, p, isa.ArchARM))
	f := funcByName(t, m, "main")
	if len(f.Loops) != 2 {
		t.Errorf("loops = %d, want 2", len(f.Loops))
	}
}

func TestCallGraph(t *testing.T) {
	p := &minic.Program{Name: "t", Funcs: []*minic.Func{
		{Name: "leaf", NParams: 1, Body: []minic.Stmt{minic.Return{E: minic.Var("p0")}}},
		{Name: "mid", NParams: 1, Body: []minic.Stmt{
			minic.Return{E: minic.Call{Name: "leaf", Args: []minic.Expr{minic.Var("p0")}}},
		}},
		{Name: "main", Body: []minic.Stmt{
			minic.ExprStmt{E: minic.Call{Name: "mid", Args: []minic.Expr{minic.Int(1)}}},
			minic.ExprStmt{E: minic.Call{Name: "leaf", Args: []minic.Expr{minic.Int(2)}}},
			minic.Return{E: minic.Int(0)},
		}},
	}}
	m := build(t, link(t, p, isa.ArchARM))
	leaf := funcByName(t, m, "leaf")
	mid := funcByName(t, m, "mid")
	if got := len(m.Callers[leaf.Entry]); got != 2 {
		t.Errorf("leaf callers = %d, want 2", got)
	}
	if got := len(m.Callers[mid.Entry]); got != 1 {
		t.Errorf("mid callers = %d, want 1", got)
	}
	main := funcByName(t, m, "main")
	callees := map[uint32]bool{}
	for _, cs := range main.Calls {
		if cs.Target != 0 {
			callees[cs.Target] = true
		}
	}
	if len(callees) != 2 {
		t.Errorf("main callees = %v", callees)
	}
}

func TestImportStubsAndCallSiteNames(t *testing.T) {
	p := &minic.Program{Name: "t", Funcs: []*minic.Func{{
		Name: "main",
		Body: []minic.Stmt{
			minic.ExprStmt{E: minic.Call{Name: "recv", Args: []minic.Expr{minic.Int(0)}}},
			minic.Return{E: minic.Int(0)},
		},
	}}}
	m := build(t, link(t, p, isa.ArchARM))
	main := funcByName(t, m, "main")
	var found bool
	for _, cs := range main.Calls {
		if cs.ImportName == "recv" {
			found = true
			stub, ok := m.FuncAt(cs.Target)
			if !ok || !stub.ImportStub || stub.ImportName != "recv" {
				t.Errorf("stub func = %+v", stub)
			}
		}
	}
	if !found {
		t.Error("no call site labelled recv")
	}
	// Custom functions must exclude stubs.
	for _, f := range m.CustomFuncs() {
		if f.ImportStub {
			t.Error("CustomFuncs returned a stub")
		}
	}
}

func TestPointerTableSeedsDiscovery(t *testing.T) {
	// handler is referenced only from a data-section table: recursive
	// descent alone would miss it without the data scan.
	p := &minic.Program{
		Name: "t",
		Globals: []*minic.Global{{
			Name: "tbl", Size: 4, Init: make([]byte, 4),
			Ptrs: []minic.PtrInit{{Off: 0, FuncName: "handler"}},
		}},
		Funcs: []*minic.Func{
			{Name: "main", Body: []minic.Stmt{minic.Return{E: minic.Int(0)}}},
			{Name: "handler", NParams: 1, Body: []minic.Stmt{minic.Return{E: minic.Var("p0")}}},
		},
	}
	m := build(t, link(t, p, isa.ArchARM))
	funcByName(t, m, "handler")
}

func TestPrologueScanFindsDeadCode(t *testing.T) {
	p := &minic.Program{Name: "t", Funcs: []*minic.Func{
		{Name: "main", Body: []minic.Stmt{minic.Return{E: minic.Int(0)}}},
		{Name: "orphan", NParams: 1, Body: []minic.Stmt{minic.Return{E: minic.Var("p0")}}},
	}}
	bin := link(t, p, isa.ArchARM)
	m := build(t, bin)
	funcByName(t, m, "orphan")

	m2, err := Build(bin, Options{SkipPrologueScan: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range m2.Funcs {
		if f.Name == "orphan" {
			t.Error("orphan found despite disabled prologue scan")
		}
	}
}

func TestStrippedNames(t *testing.T) {
	p := &minic.Program{Name: "t", Funcs: []*minic.Func{
		{Name: "main", Body: []minic.Stmt{minic.Return{E: minic.Int(0)}}},
	}}
	bin := link(t, p, isa.ArchARM)
	bin.Strip()
	m := build(t, bin)
	f, ok := m.FuncAt(bin.Entry)
	if !ok {
		t.Fatal("entry function missing")
	}
	if !strings.HasPrefix(f.Name, "sub_") {
		t.Errorf("stripped name = %q", f.Name)
	}
}

func TestAllArchitectures(t *testing.T) {
	p := &minic.Program{Name: "t", Funcs: []*minic.Func{{
		Name: "main", NParams: 1,
		Body: []minic.Stmt{
			minic.Let{Name: "i", E: minic.Int(0)},
			minic.While{
				Cond: minic.Cond{Op: minic.Lt, L: minic.Var("i"), R: minic.Var("p0")},
				Body: []minic.Stmt{minic.Assign{Name: "i", E: minic.Add(minic.Var("i"), minic.Int(1))}},
			},
			minic.Return{E: minic.Var("i")},
		},
	}}}
	for _, arch := range []isa.Arch{isa.ArchARM, isa.ArchAARCH, isa.ArchMIPS} {
		m := build(t, link(t, p, arch))
		f := funcByName(t, m, "main")
		if !f.HasLoop() || f.Params != 1 {
			t.Errorf("%v: loop=%v params=%d", arch, f.HasLoop(), f.Params)
		}
	}
}

func TestDominatorProperties(t *testing.T) {
	p := &minic.Program{Name: "t", Funcs: []*minic.Func{{
		Name: "main", NParams: 2,
		Body: []minic.Stmt{
			minic.Let{Name: "r", E: minic.Int(0)},
			minic.If{
				Cond: minic.Cond{Op: minic.Gt, L: minic.Var("p0"), R: minic.Int(0)},
				Then: []minic.Stmt{minic.Assign{Name: "r", E: minic.Int(1)}},
				Else: []minic.Stmt{minic.Assign{Name: "r", E: minic.Int(2)}},
			},
			minic.While{
				Cond: minic.Cond{Op: minic.Lt, L: minic.Var("r"), R: minic.Var("p1")},
				Body: []minic.Stmt{minic.Assign{Name: "r", E: minic.Add(minic.Var("r"), minic.Int(1))}},
			},
			minic.Return{E: minic.Var("r")},
		},
	}}}
	m := build(t, link(t, p, isa.ArchARM))
	f := funcByName(t, m, "main")
	idom := Dominators(f)
	// Entry dominates every reachable block.
	for _, a := range f.Order {
		if _, ok := idom[a]; !ok {
			continue // unreachable
		}
		if !Dominates(idom, f.Entry, a) {
			t.Errorf("entry does not dominate %#x", a)
		}
	}
	// idom of entry is itself.
	if idom[f.Entry] != f.Entry {
		t.Error("entry idom wrong")
	}
	// Every non-entry idom differs from the node itself.
	for n, d := range idom {
		if n != f.Entry && d == n {
			t.Errorf("self-idom at %#x", n)
		}
	}
}

func TestBlockEndAndSize(t *testing.T) {
	p := &minic.Program{Name: "t", Funcs: []*minic.Func{{
		Name: "main", Body: []minic.Stmt{minic.Return{E: minic.Int(0)}},
	}}}
	m := build(t, link(t, p, isa.ArchARM))
	f := funcByName(t, m, "main")
	total := 0
	for _, b := range f.BlocksInOrder() {
		if b.End() != b.Start+uint32(len(b.Instrs)*isa.Width) {
			t.Error("End inconsistent")
		}
		total += len(b.Instrs) * isa.Width
	}
	// main is straight-line code, so its blocks tile [Entry, last End).
	if span := f.Blocks[f.Order[len(f.Order)-1]].End() - f.Entry; total != int(span) {
		t.Errorf("blocks cover %d bytes, want %d", total, span)
	}
}

func TestIndirectCallUnresolvedWithoutResolver(t *testing.T) {
	p := &minic.Program{
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
	m := build(t, link(t, p, isa.ArchARM))
	main := funcByName(t, m, "main")
	var indirect *CallSite
	for i := range main.Calls {
		if main.Calls[i].Indirect {
			indirect = &main.Calls[i]
		}
	}
	if indirect == nil {
		t.Fatal("no indirect call site recorded")
	}
	if indirect.Target != 0 {
		t.Error("indirect site resolved without resolver")
	}
}

func TestResolverIntegration(t *testing.T) {
	p := &minic.Program{
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
	bin := link(t, p, isa.ArchARM)
	var hAddr uint32
	for _, f := range bin.Funcs {
		if f.Name == "h" {
			hAddr = f.Addr
		}
	}
	resolver := func(b *binimg.Binary, f *Function, site CallSite) []uint32 {
		return []uint32{hAddr}
	}
	m, err := Build(bin, Options{Resolver: resolver})
	if err != nil {
		t.Fatal(err)
	}
	main := funcByName(t, m, "main")
	var resolved bool
	for _, cs := range main.Calls {
		if cs.Indirect && cs.Target == hAddr {
			resolved = true
		}
	}
	if !resolved {
		t.Error("indirect call not resolved")
	}
	h := funcByName(t, m, "h")
	if len(m.Callers[h.Entry]) != 1 {
		t.Errorf("h callers = %d", len(m.Callers[h.Entry]))
	}
}

// switchProg is one function whose switch compiles to a computed jump
// through a rodata table of case addresses.
func switchProg() *minic.Program {
	return &minic.Program{
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
						{minic.StoreStmt{Size: 4, Addr: minic.GlobalRef("out"), Val: minic.Int(3)}},
					},
					Default: []minic.Stmt{minic.StoreStmt{Size: 4, Addr: minic.GlobalRef("out"), Val: minic.Int(9)}},
				},
				minic.Return{E: minic.Int(0)},
			},
		}},
	}
}

// tableResolver mimics table reading: it returns every rodata word that is
// an instruction-aligned text address (the linker placed the case addresses
// there).
func tableResolver(b *binimg.Binary, f *Function, addr uint32) []uint32 {
	var out []uint32
	base := b.Rodata.Addr
	for off := uint32(0); off+4 <= uint32(len(b.Rodata.Data)); off += 4 {
		if w, ok := b.WordAt(base + off); ok && b.Text.Contains(w) && (w-b.Text.Addr)%isa.Width == 0 {
			out = append(out, w)
		}
	}
	return out
}

func TestSwitchJumpTableRecovery(t *testing.T) {
	bin := link(t, switchProg(), isa.ArchARM)

	// Without a jump resolver, the case blocks stay unrecovered.
	plain, err := Build(bin, Options{})
	if err != nil {
		t.Fatal(err)
	}
	pf := funcByName(t, plain, "router")
	if len(pf.DynJumps) != 1 {
		t.Fatalf("dyn jumps = %d, want 1", len(pf.DynJumps))
	}
	if len(pf.JumpTables) != 0 {
		t.Error("jump table resolved without resolver")
	}

	// With a resolver that mimics table reading, the cases join the CFG.
	resolved, err := Build(bin, Options{JumpResolver: tableResolver})
	if err != nil {
		t.Fatal(err)
	}
	rf := funcByName(t, resolved, "router")
	if len(rf.JumpTables) != 1 {
		t.Fatalf("jump tables = %d, want 1", len(rf.JumpTables))
	}
	for _, ts := range rf.JumpTables {
		if len(ts) != 3 {
			t.Errorf("targets = %d, want 3 (%v)", len(ts), ts)
		}
	}
	if rf.NumBlocks() <= pf.NumBlocks() {
		t.Errorf("resolved blocks %d should exceed unresolved %d", rf.NumBlocks(), pf.NumBlocks())
	}
	// The jr block must now have the case successors.
	var jrSuccs int
	for _, b := range rf.BlocksInOrder() {
		last := b.Instrs[len(b.Instrs)-1]
		if last.Op == isa.OpJr {
			jrSuccs = len(b.Succs)
		}
	}
	if jrSuccs != 3 {
		t.Errorf("jr successors = %d, want 3", jrSuccs)
	}
}

// A resolver target the rebuild could not decode (here a misaligned one)
// must be dropped, not take the whole function out of the model with it.
func TestJumpTableBadTargetKeepsFunction(t *testing.T) {
	bin := link(t, switchProg(), isa.ArchARM)
	resolver := func(b *binimg.Binary, f *Function, addr uint32) []uint32 {
		return append(tableResolver(b, f, addr), f.Entry+2)
	}
	m, err := Build(bin, Options{JumpResolver: resolver})
	if err != nil {
		t.Fatal(err)
	}
	rf := funcByName(t, m, "router")
	if len(rf.JumpTables) != 1 {
		t.Fatalf("jump tables = %d, want 1", len(rf.JumpTables))
	}
	for _, ts := range rf.JumpTables {
		if len(ts) != 3 {
			t.Errorf("targets = %v, want the 3 case addresses", ts)
		}
	}
}
