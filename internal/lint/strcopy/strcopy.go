// Package strcopy flags []byte→string conversions inside loops in the pure
// analysis packages. Each such conversion allocates and copies; in the
// per-function loops of the pipeline (vector extraction, call-site string
// collection, taint propagation) those copies dominated the allocation
// profile before interning. The fix is one of:
//
//   - intern the bytes through an intern.Table (Table.Bytes does a
//     no-alloc map lookup on repeats),
//   - restructure to compare/index bytes directly (bytes.Equal, map keyed
//     by something cheaper), or
//   - annotate //fitslint:ignore strcopy <reason> when the conversion is
//     provably cold or the copy is required for ownership.
//
// Two shapes are deliberately not flagged: conversions outside loops (a
// once-per-binary copy is noise; the lint aims at paths where N is large),
// and conversions used directly as a map index — `m[string(b)]` is the
// no-alloc lookup idiom the compiler optimizes, and it is exactly what the
// interned fast paths use.
package strcopy

import (
	"go/ast"
	"go/types"

	"fits/internal/lint/analysis"
	"fits/internal/lint/nondet"
)

// Analyzer implements the check.
var Analyzer = &analysis.Analyzer{
	Name: "strcopy",
	Doc: "flags string(b) conversions from []byte inside loops in pure analysis packages; " +
		"each one allocates a copy on a path executed per function or per instruction",
	Run: run,
}

func run(pass *analysis.Pass) error {
	// nondet's pure packages: their inner loops are the pipeline's hot paths.
	if !nondet.PurePackages()[pass.Pkg.Path()] {
		return nil
	}
	for _, file := range pass.Files {
		exempt := mapIndexConversions(pass, file)
		ast.Inspect(file, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch loop := n.(type) {
			case *ast.ForStmt:
				body = loop.Body
			case *ast.RangeStmt:
				body = loop.Body
			default:
				return true
			}
			ast.Inspect(body, func(m ast.Node) bool {
				call, ok := m.(*ast.CallExpr)
				if !ok || exempt[call] || !isBytesToString(pass, call) {
					return true
				}
				pass.Reportf(call.Pos(),
					"string(b) copies its []byte inside a loop in pure analysis package %s; "+
						"intern it (intern.Table.Bytes), index bytes directly, or annotate //fitslint:ignore strcopy <reason>",
					pass.Pkg.Path())
				return true
			})
			// The inner Inspect already covered nested loops' bodies; walking
			// on would report each conversion once per enclosing loop.
			return false
		})
	}
	return nil
}

// mapIndexConversions collects the conversions appearing directly as a map
// index — `m[string(b)]` — which the compiler performs without allocating.
func mapIndexConversions(pass *analysis.Pass, file *ast.File) map[*ast.CallExpr]bool {
	exempt := map[*ast.CallExpr]bool{}
	ast.Inspect(file, func(n ast.Node) bool {
		idx, ok := n.(*ast.IndexExpr)
		if !ok {
			return true
		}
		call, ok := idx.Index.(*ast.CallExpr)
		if !ok {
			return true
		}
		if t := pass.TypesInfo.Types[idx.X].Type; t != nil {
			if _, isMap := t.Underlying().(*types.Map); isMap {
				exempt[call] = true
			}
		}
		return true
	})
	// Map *assignment* is not optimized — the key is stored, so
	// `m[string(b)] = v` (and m[string(b)]++) does allocate. Un-exempt those.
	ast.Inspect(file, func(n ast.Node) bool {
		var lhs []ast.Expr
		switch st := n.(type) {
		case *ast.AssignStmt:
			lhs = st.Lhs
		case *ast.IncDecStmt:
			lhs = []ast.Expr{st.X}
		default:
			return true
		}
		for _, e := range lhs {
			if idx, ok := e.(*ast.IndexExpr); ok {
				if call, ok := idx.Index.(*ast.CallExpr); ok {
					delete(exempt, call)
				}
			}
		}
		return true
	})
	return exempt
}

// isBytesToString reports whether call is a type conversion from a []byte
// to a string (either may be a named type).
func isBytesToString(pass *analysis.Pass, call *ast.CallExpr) bool {
	if len(call.Args) != 1 {
		return false
	}
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok || !tv.IsType() {
		return false
	}
	dst, ok := tv.Type.Underlying().(*types.Basic)
	if !ok || dst.Kind() != types.String {
		return false
	}
	return isByteSlice(pass.TypesInfo.Types[call.Args[0]].Type)
}

// isByteSlice reports whether t's underlying type is []byte.
func isByteSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}
