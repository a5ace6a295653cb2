package nondet

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// supportPackages are fits/internal packages internal/taint may import
// without being on the determinism contract: data carriers and tables with
// no analysis logic of their own. Adding an import to internal/taint that
// is in neither this set nor purePackages fails the sync test below, which
// forces the decision to be made explicitly instead of a new analysis pass
// silently escaping the nondet lint.
var supportPackages = map[string]bool{
	"fits/internal/binimg": true, // decoded binary image (data carrier)
	"fits/internal/isa":    true, // instruction tables
	"fits/internal/know":   true, // sink/source knowledge base
	// probe interface, write-only: pure code opens spans but never reads a
	// clock or a total back.
	"fits/internal/stagetime": true,
}

// taintImports parses the import lists of every non-test source file of
// internal/taint, without building the package.
func taintImports(t *testing.T) map[string]bool {
	t.Helper()
	dir := filepath.Join("..", "..", "taint")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read %s: %v", dir, err)
	}
	fset := token.NewFileSet()
	out := map[string]bool{}
	for _, e := range entries {
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ImportsOnly)
		if err != nil {
			t.Fatalf("parse %s: %v", name, err)
		}
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatalf("import path %s: %v", imp.Path.Value, err)
			}
			out[path] = true
		}
	}
	if len(out) == 0 {
		t.Fatal("no imports found in internal/taint")
	}
	return out
}

// TestPureListCoversTaintImports fails when internal/taint imports a
// fits/internal package that is neither on the determinism contract
// (purePackages) nor an acknowledged support package.
func TestPureListCoversTaintImports(t *testing.T) {
	pure := PurePackages()
	for path := range taintImports(t) {
		if !strings.HasPrefix(path, "fits/internal/") {
			continue
		}
		if !pure[path] && !supportPackages[path] {
			t.Errorf("internal/taint imports %s, which is neither in the nondet purePackages list nor an acknowledged support package; add it to one", path)
		}
	}
}

// TestPureListContainsPrecisionPasses pins the two precision passes to the
// contract: they feed byte-stable reports and must never read clocks.
func TestPureListContainsPrecisionPasses(t *testing.T) {
	pure := PurePackages()
	for _, path := range []string{"fits/internal/alias", "fits/internal/pathcheck"} {
		if !pure[path] {
			t.Errorf("%s missing from the nondet purePackages list", path)
		}
	}
}
