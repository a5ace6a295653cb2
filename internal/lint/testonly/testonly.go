// Package testonly flags exported API of internal/ packages that only tests
// use: a func, method, type, var or const that no non-test file references
// outside its own declaration (Pass.Refs, which counts the nested bench/
// module too). Pass.Refs counts a method as referenced when non-test code
// converts its receiver to an interface declaring it (Server.ServeHTTP via
// http.Handler), or to any interface for the methods fmt and encoding look
// up dynamically (String, Error, Format, the JSON and text marshalers). A
// constant of an iota block one of whose constants is referenced
// (OriginUnknown, a Kind's zero value) is exempt too.
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
				default:
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
