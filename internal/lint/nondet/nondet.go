// Package nondet flags calls that introduce run-to-run nondeterminism —
// wall-clock reads, math/rand, environment lookups, allocation counters —
// inside the pure analysis packages whose results must be byte-identical
// across runs.
//
// The FITS pipeline's cache-equivalence and determinism guarantees (see
// cache_equivalence_test.go and parallel_test.go) hold only if the analysis
// core is a pure function of its input bytes. Service and CLI layers may
// read clocks and environments; internal/{cfg,dataflow,ir,bfv,infer,
// cluster,score,taint,karonte,ucse,alias,pathcheck} may not.
package nondet

import (
	"go/ast"
	"go/types"

	"fits/internal/lint/analysis"
)

// Analyzer implements the check.
var Analyzer = &analysis.Analyzer{
	Name: "nondet",
	Doc: "flags time.Now/Since/Until, math/rand, os environment reads and runtime allocation " +
		"counters inside pure analysis packages whose output must be byte-identical across runs",
	Run: run,
}

// purePackages are the import paths under the determinism contract.
// TestPureListCoversTaintImports keeps this in sync with the analysis
// packages internal/taint pulls in: a new pure dependency must be added
// here or the determinism lint silently stops covering it.
var purePackages = map[string]bool{
	"fits/internal/cfg":       true,
	"fits/internal/dataflow":  true,
	"fits/internal/ir":        true,
	"fits/internal/bfv":       true,
	"fits/internal/infer":     true,
	"fits/internal/cluster":   true,
	"fits/internal/score":     true,
	"fits/internal/taint":     true,
	"fits/internal/karonte":   true,
	"fits/internal/ucse":      true,
	"fits/internal/alias":     true,
	"fits/internal/pathcheck": true,
	"fits/internal/xchan":     true,
}

// PurePackages returns the contract list, which strcopy shares. Callers
// must not modify it.
func PurePackages() map[string]bool { return purePackages }

// banned maps import path -> function names that taint determinism. An
// empty set bans every function in the package.
var banned = map[string]map[string]bool{
	"time":         {"Now": true, "Since": true, "Until": true},
	"math/rand":    {},
	"math/rand/v2": {},
	"os":           {"Getenv": true, "LookupEnv": true, "Environ": true},
	// Allocation counters: pure packages account for stages only through a
	// stagetime.Probe, which opens spans and reads nothing back.
	"runtime":         {"ReadMemStats": true},
	"runtime/metrics": {"Read": true},
}

func run(pass *analysis.Pass) error {
	if !purePackages[pass.Pkg.Path()] {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pn, ok := pass.TypesInfo.Uses[pkg].(*types.PkgName)
			if !ok {
				return true
			}
			path := pn.Imported().Path()
			names, ok := banned[path]
			if !ok || (len(names) > 0 && !names[sel.Sel.Name]) {
				return true
			}
			pass.Reportf(sel.Pos(),
				"%s.%s in pure analysis package %s; results must be byte-identical across runs (inject the value from the caller or annotate //fitslint:ignore nondet <reason>)",
				pkg.Name, sel.Sel.Name, pass.Pkg.Path())
			return true
		})
	}
	return nil
}
