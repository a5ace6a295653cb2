// Package loader turns `go list` package patterns into parsed, type-checked
// packages for fitslint's analyzers, using only the standard library.
//
// x/tools' go/packages is not vendored, so the loader reimplements the
// relevant slice of it: one `go list -json` invocation enumerates the target
// packages, a second `go list -export -deps -json` invocation makes the go
// tool produce compiled export data for every dependency (stdlib included —
// modern toolchains ship no pre-built .a files), and go/types checks each
// target's source against that export data through the stdlib gc importer's
// lookup hook. Both invocations are offline: the module has no external
// requirements.
package loader

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

// Package is one parsed, type-checked target package.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File // non-test files, in GoFiles order
	Types      *types.Package
	Info       *types.Info
}

// listedPackage is the subset of `go list -json` output the loader reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
}

// Load expands the patterns relative to dir (the module root), then parses
// and type-checks every matched package. Test files are not loaded: the
// invariants fitslint encodes are about shipped analysis code, and several
// analyzers (ctxflow, nondet) explicitly exempt tests.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	targets, err := goList(dir, append([]string{"list", "-json=ImportPath,Dir,GoFiles"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	exports, err := ExportData(dir, patterns...)
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", lookupIn(exports))
	var out []*Package
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })
	for _, t := range targets {
		if len(t.GoFiles) == 0 {
			continue
		}
		pkg, err := check(fset, imp, t)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	return out, nil
}

// LoadNested loads every package of each module one directory below dir,
// such as the repo's bench/: a module of its own that may still import
// dir's internal packages, so its references count for module-level checks.
func LoadNested(dir string) ([]*Package, error) {
	mods, err := filepath.Glob(filepath.Join(dir, "*", "go.mod"))
	var out []*Package
	for _, mod := range mods {
		pkgs, err := Load(filepath.Dir(mod))
		if err != nil {
			return nil, fmt.Errorf("nested module %s: %w", filepath.Dir(mod), err)
		}
		out = append(out, pkgs...)
	}
	return out, err
}

// ExportData returns importpath -> export-data file for every dependency of
// the given patterns (and the patterns themselves), building the export
// files through the go tool's cache as a side effect.
func ExportData(dir string, patterns ...string) (map[string]string, error) {
	pkgs, err := goList(dir, append([]string{"list", "-export", "-deps", "-json=ImportPath,Export"}, patterns...)...)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(pkgs))
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return exports, nil
}

// Check parses and type-checks one directory of Go files as importPath,
// resolving imports through the export map. It backs both Load and the
// linttest fixture harness.
func Check(fset *token.FileSet, dir, importPath string, goFiles []string, exports map[string]string) (*Package, error) {
	imp := importer.ForCompiler(fset, "gc", lookupIn(exports))
	return check(fset, imp, listedPackage{ImportPath: importPath, Dir: dir, GoFiles: goFiles})
}

func check(fset *token.FileSet, imp types.Importer, t listedPackage) (*Package, error) {
	files := make([]*ast.File, 0, len(t.GoFiles))
	for _, name := range t.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(t.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := NewInfo()
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(t.ImportPath, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", t.ImportPath, err)
	}
	return &Package{
		ImportPath: t.ImportPath,
		Dir:        t.Dir,
		Fset:       fset,
		Files:      files,
		Types:      tpkg,
		Info:       info,
	}, nil
}

// NewInfo allocates the types.Info maps every analyzer relies on.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
}

// lookupIn adapts an export map to the gc importer's lookup signature. The
// importer special-cases "unsafe" itself and resolves transitive references
// through the same hook, so -deps coverage is sufficient.
func lookupIn(exports map[string]string) func(string) (io.ReadCloser, error) {
	return func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q (not in the -deps closure)", path)
		}
		return os.Open(file)
	}
}

// goList runs the go tool in dir and decodes its JSON package stream.
func goList(dir string, args ...string) ([]listedPackage, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list: %v\n%s", err, stderr.String())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(&stdout)
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list: decoding output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}
