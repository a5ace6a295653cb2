package loader

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"fits/internal/firmware"
	"fits/internal/isa"
	"fits/internal/minic"
	"fits/internal/modelcache"
)

// sameNameDispatcher links a binary named httpd whose dispatch calls
// through a .data table of three handlers at the given index. Both layouts
// the test needs put dispatch at the same entry address.
func sameNameDispatcher(t *testing.T, index minic.Expr) []byte {
	t.Helper()
	p := &minic.Program{Name: "httpd"}
	tbl := &minic.Global{Name: "handlers", Size: 12, Init: make([]byte, 12)}
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("%c_handler", 'a'+i)
		p.Funcs = append(p.Funcs, &minic.Func{
			Name: name, NParams: 1,
			Body: []minic.Stmt{minic.Return{E: minic.Add(minic.Var("p0"), minic.Int(int32(i)))}},
		})
		tbl.Ptrs = append(tbl.Ptrs, minic.PtrInit{Off: 4 * i, FuncName: name})
	}
	p.Globals = append(p.Globals, tbl)
	p.Funcs = append(p.Funcs, &minic.Func{
		Name: "dispatch", NParams: 2,
		Body: []minic.Stmt{minic.Return{E: minic.CallInd{Table: "handlers", Index: index,
			Args: []minic.Expr{minic.Var("p1")}}}},
	})
	bin, err := minic.Link(p, isa.ArchARM, nil)
	if err != nil {
		t.Fatal(err)
	}
	return bin.Encode()
}

// dispatchCallees loads img and returns the callees of the target at path's
// dispatch function.
func dispatchCallees(t *testing.T, img *firmware.Image, path string, opts Options) []uint32 {
	t.Helper()
	opts.AllExecutables = true
	res, err := LoadImageContext(context.Background(), img, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, tg := range res.Targets {
		if tg.Path != path {
			continue
		}
		for _, s := range tg.Bin.Funcs {
			if s.Name == "dispatch" {
				f, ok := tg.Model.FuncAt(s.Addr)
				if !ok {
					t.Fatalf("%s: dispatch not recovered", path)
				}
				var callees []uint32
				for _, cs := range f.Calls {
					if cs.Target != 0 && !slices.Contains(callees, cs.Target) {
						callees = append(callees, cs.Target)
					}
				}
				slices.Sort(callees)
				return callees
			}
		}
	}
	t.Fatalf("%s: no dispatch target", path)
	return nil
}

// TestSameNameBinariesDoNotShareResolutions: two binaries with the same
// container name and a dispatch function at the same entry must each get
// their own indirect-call resolution. bin/a dispatches on an unconstrained
// index (three callees), bin/b on constant index 1 (one callee); bin/b's
// result must match loading it alone, at any parallelism and cache state.
func TestSameNameBinariesDoNotShareResolutions(t *testing.T) {
	a := sameNameDispatcher(t, minic.Var("p0"))
	b := sameNameDispatcher(t, minic.Int(1))
	alone := &firmware.Image{Files: []firmware.File{{Path: "bin/b", Data: b}}}
	want := dispatchCallees(t, alone, "bin/b", Options{Parallelism: 1})
	if len(want) != 1 {
		t.Fatalf("bin/b alone: dispatch callees = %#x, want one", want)
	}
	both := &firmware.Image{Files: []firmware.File{{Path: "bin/a", Data: a}, {Path: "bin/b", Data: b}}}
	for _, par := range []int{1, 4} {
		cache := modelcache.New(0, 0)
		for _, pass := range []string{"cold", "warm"} {
			got := dispatchCallees(t, both, "bin/b", Options{Parallelism: par, Cache: cache})
			if !slices.Equal(got, want) {
				t.Errorf("parallelism %d, %s cache: bin/b dispatch callees = %#x, want %#x (alone)", par, pass, got, want)
			}
		}
	}
}

// TestSameNameLibrariesResolveToFirstPath: when two libraries share a file
// name, every load resolves the dependency to the one first in path order,
// whatever order the image lists them in.
func TestSameNameLibrariesResolveToFirstPath(t *testing.T) {
	s := generate(t, 0)
	libc, ok := s.Image.Lookup("lib/libc.so")
	if !ok {
		t.Fatal("sample has no lib/libc.so")
	}
	other := firmware.File{Path: "usr/lib/libc.so", Data: sameNameDispatcher(t, minic.Int(0))}
	img := &firmware.Image{Files: append([]firmware.File{other}, s.Image.Files...)}
	want := modelcache.HashBytes(libc.Data)
	cache := modelcache.New(0, 0)
	for i := 0; i < 20; i++ {
		res, err := LoadImageContext(context.Background(), img, Options{Cache: cache})
		if err != nil {
			t.Fatal(err)
		}
		for _, tg := range res.Targets {
			if tg.LibHashes["libc.so"] != want {
				t.Fatalf("load %d: %s resolved libc.so to usr/lib/libc.so, want lib/libc.so", i, tg.Path)
			}
		}
	}
}
