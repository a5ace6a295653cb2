// Package analysis is a minimal, dependency-free re-implementation of the
// golang.org/x/tools/go/analysis driver contract. The repo vendors no
// third-party modules, so fitslint's analyzers are written against this
// stdlib-only shim instead; the API mirrors x/tools closely enough that an
// analyzer body could be moved there unchanged if the dependency ever
// lands.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one invariant check. Run inspects a single package via
// the Pass and reports findings through Pass.Report; it must not retain the
// Pass after returning.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //fitslint:ignore directives. It must be a valid Go identifier.
	Name string

	// Doc is the one-paragraph invariant statement shown by `fitslint -help`.
	Doc string

	// Run applies the analyzer to one type-checked package.
	Run func(*Pass) error
}

// Pass is the interface between the driver and one analyzer applied to one
// package: the syntax, the type information, and the report sink.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File // non-test files only, in file-name order
	Pkg       *types.Package
	TypesInfo *types.Info

	// Refs holds the Key of every object a non-test file of any loaded
	// package references outside the object's own declaration, counting
	// the methods a conversion to an interface can reach.
	Refs map[string]bool

	// Report delivers one diagnostic. The driver owns suppression
	// (//fitslint:ignore) and ordering; analyzers just report.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Key names a package-level object or a method the same way whether obj
// was checked from source or read from export data, which go/types
// represents as distinct objects: "path.Name" or "path.Type.Method". It is
// "" for anything else (locals, fields, universe names).
func Key(obj types.Object) string {
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
		if named := Receiver(fn); named != nil {
			return fn.Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
		}
		return ""
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// Receiver returns the named type of method fn's receiver, through a
// pointer; nil for an interface method.
func Receiver(fn *types.Func) *types.Named {
	t := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

// Diagnostic is one finding, positioned in the pass's FileSet.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}
