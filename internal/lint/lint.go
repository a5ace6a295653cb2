// Package lint assembles the fitslint analyzer suite: it registers the
// individual analyzers, runs them over loaded packages, and implements the
// //fitslint:ignore suppression directive.
//
// Directive syntax, checked at lint time:
//
//	//fitslint:ignore <analyzer> <reason>
//
// placed on the flagged line or on the line directly above it. The reason
// is mandatory — a suppression without a recorded justification is itself a
// finding — and naming an unknown analyzer is too, so directives cannot rot
// silently.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"regexp"
	"sort"
	"strings"

	"fits/internal/lint/analysis"
	"fits/internal/lint/ctxflow"
	"fits/internal/lint/loader"
	"fits/internal/lint/lockguard"
	"fits/internal/lint/maporder"
	"fits/internal/lint/nondet"
	"fits/internal/lint/strcopy"
	"fits/internal/lint/testonly"
)

// Analyzers returns the registered suite in stable order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		ctxflow.Analyzer,
		lockguard.Analyzer,
		maporder.Analyzer,
		nondet.Analyzer,
		strcopy.Analyzer,
		testonly.Analyzer,
	}
}

// Diagnostic is one reported finding with its position resolved.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// Run applies analyzers (every registered one when none are given) to each
// of pkgs and returns the unsuppressed findings sorted by position, with
// malformed directives as findings of the pseudo-analyzer "fitslint".
// callers are packages loaded only for their references (Pass.Refs), such
// as a nested module's.
func Run(pkgs, callers []*loader.Package, analyzers ...*analysis.Analyzer) ([]Diagnostic, error) {
	if len(analyzers) == 0 {
		analyzers = Analyzers()
	}
	refs := map[string]bool{}
	for _, pkg := range append(pkgs[:len(pkgs):len(pkgs)], callers...) {
		references(pkg, refs)
	}
	var diags []Diagnostic
	for _, pkg := range pkgs {
		d, err := runAnalyzers(pkg, analyzers, refs)
		if err != nil {
			return nil, err
		}
		diags = append(diags, d...)
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

func runAnalyzers(pkg *loader.Package, analyzers []*analysis.Analyzer, refs map[string]bool) ([]Diagnostic, error) {
	sup, diags := parseDirectives(pkg, analyzers)
	for _, a := range analyzers {
		var raw []analysis.Diagnostic
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			Refs:      refs,
			Report:    func(d analysis.Diagnostic) { raw = append(raw, d) },
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.ImportPath, err)
		}
		for _, d := range raw {
			pos := pkg.Fset.Position(d.Pos)
			if sup.matches(a.Name, pos) {
				continue
			}
			diags = append(diags, Diagnostic{Analyzer: a.Name, Pos: pos, Message: d.Message})
		}
	}
	return diags, nil
}

// references adds to refs the analysis.Key of every object pkg's files
// use, except uses inside the declaration of the object itself: a
// recursive call or a self-referential type does not make a name used.
func references(pkg *loader.Package, refs map[string]bool) {
	uses := func(n ast.Node, self *ast.Ident) {
		own := analysis.Key(pkg.Info.Defs[self])
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if k := analysis.Key(pkg.Info.Uses[id]); k != "" && k != own {
					refs[k] = true
				}
			}
			return true
		})
	}
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				uses(d, d.Name)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					var self *ast.Ident
					if ts, ok := spec.(*ast.TypeSpec); ok {
						self = ts.Name
					}
					uses(spec, self)
				}
			}
		}
	}
}

// suppression is the analyzer, file and line of a valid
// //fitslint:ignore directive.
type suppression struct {
	analyzer, file string
	line           int
}

// suppressions is the set of a package's valid directives.
type suppressions map[suppression]bool

// matches reports whether a diagnostic at pos is covered: the directive
// sits on the flagged line (trailing comment) or the line directly above.
func (s suppressions) matches(analyzer string, pos token.Position) bool {
	return s[suppression{analyzer, pos.Filename, pos.Line}] || s[suppression{analyzer, pos.Filename, pos.Line - 1}]
}

var directiveRe = regexp.MustCompile(`^//fitslint:ignore(?:\s+(\S+))?(?:\s+(\S.*))?$`)

// parseDirectives scans every comment for fitslint:ignore directives,
// returning the suppression index plus findings for malformed ones
// (missing analyzer, missing reason, unknown analyzer name).
func parseDirectives(pkg *loader.Package, analyzers []*analysis.Analyzer) (suppressions, []Diagnostic) {
	known := map[string]bool{}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	sup := suppressions{}
	var bad []Diagnostic
	report := func(pos token.Position, format string, args ...any) {
		bad = append(bad, Diagnostic{Analyzer: "fitslint", Pos: pos, Message: fmt.Sprintf(format, args...)})
	}
	for _, file := range pkg.Files {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, "//fitslint:ignore") {
					continue
				}
				m := directiveRe.FindStringSubmatch(c.Text)
				pos := pkg.Fset.Position(c.Pos())
				switch {
				case m == nil || m[1] == "":
					report(pos, "malformed directive %q: want //fitslint:ignore <analyzer> <reason>", c.Text)
				case !known[m[1]]:
					report(pos, "directive names unknown analyzer %q", m[1])
				case m[2] == "":
					report(pos, "suppression of %s without a reason; state why the invariant holds", m[1])
				default:
					sup[suppression{m[1], pos.Filename, pos.Line}] = true
				}
			}
		}
	}
	return sup, bad
}
