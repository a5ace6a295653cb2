// Package testonly flags exported API of internal/ packages that only tests
// use: a func, method, type, var or const that no non-test file references
// outside its own declaration (Pass.Refs, which counts the nested bench/
// module too). Two kinds of unreferenced names are exempt, being used in
// ways a reference count cannot see: a method that satisfies an interface
// (Server.ServeHTTP via http.Handler), and a constant of an iota block one
// of whose constants is referenced (OriginUnknown, a Kind's zero value).
package testonly

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"fits/internal/lint/analysis"
)

// Analyzer implements the check.
var Analyzer = &analysis.Analyzer{
	Name: "testonly",
	Doc: "flags exported funcs, methods, types, vars and consts of internal/ packages " +
		"that no non-test file of the module (or of a module nested in it) references",
	Run: run,
}

func run(pass *analysis.Pass) error {
	if !strings.Contains(pass.Pkg.Path()+"/", "/internal/") {
		return nil
	}
	used := func(id *ast.Ident) bool { return pass.Refs[analysis.Key(pass.TypesInfo.Defs[id])] }
	report := func(id *ast.Ident, kind string) {
		pass.Reportf(id.Pos(), "exported %s %s is referenced only by tests; delete it, unexport it, "+
			"or move it into the test (or annotate //fitslint:ignore testonly <reason>)", kind, id.Name)
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				switch {
				case !d.Name.IsExported() || used(d.Name):
				case d.Recv == nil:
					report(d.Name, "func")
				case !satisfiesInterface(pass.Pkg, pass.TypesInfo.Defs[d.Name].(*types.Func)):
					report(d.Name, "method")
				}
			case *ast.GenDecl:
				if d.Tok == token.CONST && iotaBlockUsed(pass.TypesInfo, d, used) {
					continue
				}
				for _, spec := range d.Specs {
					var names []*ast.Ident
					switch s := spec.(type) {
					case *ast.TypeSpec:
						names = []*ast.Ident{s.Name}
					case *ast.ValueSpec:
						names = s.Names
					}
					for _, name := range names {
						if name.IsExported() && !used(name) {
							report(name, d.Tok.String())
						}
					}
				}
			}
		}
	}
	return nil
}

// iotaBlockUsed reports whether const block d counts with iota and has a
// used name.
func iotaBlockUsed(info *types.Info, d *ast.GenDecl, used func(*ast.Ident) bool) bool {
	usesIota, anyUsed := false, false
	for _, spec := range d.Specs {
		s := spec.(*ast.ValueSpec)
		for _, v := range s.Values {
			ast.Inspect(v, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				usesIota = usesIota || ok && info.Uses[id] == types.Universe.Lookup("iota")
				return true
			})
		}
		for _, name := range s.Names {
			anyUsed = anyUsed || used(name)
		}
	}
	return usesIota && anyUsed
}

// satisfiesInterface reports whether fn's receiver type, or a pointer to
// it, implements an interface with a method of fn's name: error, or a named
// interface of pkg or its transitive imports. A generic interface is
// instantiated with the receiver type, which covers F-bounded constraints
// like dataflow.Lattice[S].
func satisfiesInterface(pkg *types.Package, fn *types.Func) bool {
	named := analysis.Receiver(fn)
	if named == nil || named.TypeParams().Len() > 0 {
		return false
	}
	candidates := []types.Type{types.Universe.Lookup("error").Type()}
	seen := map[*types.Package]bool{}
	for todo := []*types.Package{pkg}; len(todo) > 0; todo = todo[1:] {
		if p := todo[0]; !seen[p] {
			seen[p] = true
			todo = append(todo, p.Imports()...)
			for _, name := range p.Scope().Names() {
				if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
					candidates = append(candidates, tn.Type())
				}
			}
		}
	}
	for _, t := range candidates {
		if g, ok := t.(*types.Named); ok && g.TypeParams().Len() > 0 {
			if t, _ = types.Instantiate(nil, g, []types.Type{named}, true); t == nil {
				continue
			}
		}
		it, ok := t.Underlying().(*types.Interface)
		if !ok {
			continue
		}
		if m, _, _ := types.LookupFieldOrMethod(it, false, fn.Pkg(), fn.Name()); m != nil &&
			(types.Satisfies(named, it) || types.Satisfies(types.NewPointer(named), it)) {
			return true
		}
	}
	return false
}
