// Package linttest is a small analysistest-style fixture harness for the
// fitslint analyzers: it type-checks one testdata directory as a package
// with a caller-chosen import path, runs a single analyzer (including the
// //fitslint:ignore directive machinery), and diffs the findings against
// `// want "regexp"` comments in the fixture source.
//
// The chosen import path matters: nondet and ctxflow condition on it, so a
// fixture can impersonate fits/internal/taint to exercise the pure-package
// rules without touching real analysis code.
package linttest

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"fits/internal/lint"
	"fits/internal/lint/analysis"
	"fits/internal/lint/loader"
)

// expectation is one `// want` annotation.
type expectation struct {
	file    string
	line    int
	rx      *regexp.Regexp
	matched bool
}

// Run checks every .go file in dir as a package named importPath with a
// single analyzer and asserts the findings equal the fixture's // want
// annotations.
//
//fitslint:ignore testonly the fixture harness of the analyzers' tests
func Run(t *testing.T, a *analysis.Analyzer, dir, importPath string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("linttest: %v", err)
	}
	var goFiles []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			goFiles = append(goFiles, e.Name())
		}
	}
	sort.Strings(goFiles)
	if len(goFiles) == 0 {
		t.Fatalf("linttest: no fixture files in %s", dir)
	}

	exports, err := loader.ExportData(dir, fixtureImports(t, dir, goFiles)...)
	if err != nil {
		t.Fatalf("linttest: export data: %v", err)
	}
	pkg, err := loader.Check(token.NewFileSet(), dir, importPath, goFiles, exports)
	if err != nil {
		t.Fatalf("linttest: %v", err)
	}
	diags, err := lint.Run([]*loader.Package{pkg}, nil, a)
	if err != nil {
		t.Fatalf("linttest: %v", err)
	}
	compare(t, diags, parseWants(t, pkg))
}

// RunModule is Run for a fixture that is a Go module: it checks every
// package of the module rooted at dir, with the modules nested in dir as
// callers, as fitslint counts bench/.
//
//fitslint:ignore testonly the fixture harness of the analyzers' tests
func RunModule(t *testing.T, a *analysis.Analyzer, dir string) {
	t.Helper()
	pkgs, err := loader.Load(dir)
	if err != nil {
		t.Fatalf("linttest: %v", err)
	}
	callers, err := loader.LoadNested(dir)
	if err != nil {
		t.Fatalf("linttest: %v", err)
	}
	diags, err := lint.Run(pkgs, callers, a)
	if err != nil {
		t.Fatalf("linttest: %v", err)
	}
	var wants []*expectation
	for _, pkg := range pkgs {
		wants = append(wants, parseWants(t, pkg)...)
	}
	compare(t, diags, wants)
}

// compare fails t for every finding no expectation claims and every
// expectation no finding met.
func compare(t *testing.T, diags []lint.Diagnostic, wants []*expectation) {
	t.Helper()
	for _, d := range diags {
		if !claim(wants, d) {
			t.Errorf("unexpected finding: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected finding matching %q, got none", w.file, w.line, w.rx)
		}
	}
}

// fixtureImports collects the distinct import paths of the fixture files so
// the harness only asks the go tool for export data it actually needs.
func fixtureImports(t *testing.T, dir string, goFiles []string) []string {
	t.Helper()
	seen := map[string]bool{}
	fset := token.NewFileSet()
	for _, name := range goFiles {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ImportsOnly)
		if err != nil {
			t.Fatalf("linttest: %v", err)
		}
		for _, im := range f.Imports {
			p, err := strconv.Unquote(im.Path.Value)
			if err != nil {
				t.Fatalf("linttest: %v", err)
			}
			seen[p] = true
		}
	}
	out := make([]string, 0, len(seen))
	for p := range seen {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// wantArgRe matches one double-quoted or backquoted want pattern.
var wantArgRe = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

// parseWants extracts `// want "rx" ["rx" ...]` annotations from the
// fixture comments; each annotation expects a finding on its own line.
func parseWants(t *testing.T, pkg *loader.Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				args := wantArgRe.FindAllString(text[len("want "):], -1)
				if len(args) == 0 {
					t.Fatalf("%s:%d: malformed want comment %q", pos.Filename, pos.Line, c.Text)
				}
				for _, q := range args {
					s, err := strconv.Unquote(q)
					if err != nil {
						t.Fatalf("%s:%d: %v", pos.Filename, pos.Line, err)
					}
					rx, err := regexp.Compile(s)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp: %v", pos.Filename, pos.Line, err)
					}
					wants = append(wants, &expectation{file: pos.Filename, line: pos.Line, rx: rx})
				}
			}
		}
	}
	return wants
}

// claim marks the first unmatched expectation covering d and reports
// whether one existed.
func claim(wants []*expectation, d lint.Diagnostic) bool {
	for _, w := range wants {
		if !w.matched && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.rx.MatchString(d.Message) {
			w.matched = true
			return true
		}
	}
	return false
}
