// Package bfv extracts the Behavioral Feature Vector of the paper's Table 1:
// six structural features from the CFG/CG and five flow features from
// reaching-definition and call-site analysis, concatenated per Algorithm 1.
package bfv

import (
	"fits/internal/binimg"
	"fits/internal/cfg"
	"fits/internal/dataflow"
	"fits/internal/intern"
	"fits/internal/know"
	"fits/internal/stagetime"
)

// Dim is the dimensionality of the feature vector.
const Dim = 11

// Feature indices into a Vector, in the order of the paper's Table 1.
const (
	FBasicBlocks = iota // 1. number of basic blocks
	FHasLoop            // 2. existence of loops
	FCallers            // 3. number of callers
	FParams             // 4. number of parameters
	FAnchorCalls        // 5. number of calls to anchor functions
	FLibCalls           // 6. number of calls to library functions
	FParamLoop          // 7. whether parameters control loops
	FParamBranch        // 8. whether parameters control conditional branches
	FParamAnchor        // 9. whether parameters are passed to anchor functions
	FArgStrings         // 10. whether arguments contain strings
	FNumStrings         // 11. number of different strings in all call sites
)

// FeatureNames are short labels used by the ablation study and reports.
var FeatureNames = [Dim]string{
	"basic-blocks", "has-loop", "callers", "params", "anchor-calls",
	"lib-calls", "param-loop", "param-branch", "param-anchor",
	"arg-strings", "num-strings",
}

// Vector is one function's behavioral feature vector.
type Vector [Dim]float64

// Drop returns a copy of v with feature i zeroed, implementing the CF-i
// variants of the paper's ablation study (RQ3).
func (v Vector) Drop(i int) Vector {
	v[i] = 0
	return v
}

// Extractor computes vectors for the functions of one binary model.
type Extractor struct {
	Bin   *binimg.Binary
	Model *cfg.Model
	// Intern, when non-nil, canonicalizes call-site string constants so a
	// value seen at many sites costs one allocation per analysis. Interning
	// never changes vector contents.
	Intern *intern.Table
	// Probe, when set, opens an Infer span around each FuncVector and a
	// nested ReachDef span around its reaching-definition pass. Vectors are
	// unaffected.
	Probe stagetime.Probe

	// anchorFn is e.anchorInfo bound once at construction: method values
	// allocate, and FuncVector needs one per call otherwise. Read-only after
	// New, so concurrent FuncVector calls may share it.
	anchorFn dataflow.AnchorFunc
}

// New returns an extractor over one binary model.
func New(bin *binimg.Binary, m *cfg.Model) *Extractor {
	e := &Extractor{Bin: bin, Model: m}
	e.anchorFn = e.anchorInfo
	return e
}

// calleeName resolves the library-function name of a call site: the import
// for PLT calls, or the export name for direct calls within a library.
func (e *Extractor) calleeName(cs cfg.CallSite) string {
	if cs.ImportName != "" {
		return cs.ImportName
	}
	if cs.Target != 0 {
		if name, ok := e.Bin.ExportAt(cs.Target); ok {
			return name
		}
	}
	return ""
}

// anchorInfo classifies a call site for the dataflow analysis.
func (e *Extractor) anchorInfo(cs cfg.CallSite) dataflow.AnchorInfo {
	name := e.calleeName(cs)
	if arity, ok := know.Anchors[name]; ok {
		return dataflow.AnchorInfo{Arity: arity, Anchor: true}
	}
	return dataflow.AnchorInfo{}
}

// FuncVector computes the 11-dimensional BFV of one function.
func (e *Extractor) FuncVector(f *cfg.Function) Vector {
	defer stagetime.Open(e.Probe, stagetime.Infer)()
	var v Vector
	// Structural features from the CFG and CG.
	v[FBasicBlocks] = float64(f.NumBlocks())
	if f.HasLoop() {
		v[FHasLoop] = 1
	}
	v[FCallers] = float64(len(e.Model.Callers[f.Entry]))
	v[FParams] = float64(f.Params)
	for _, cs := range f.Calls {
		name := e.calleeName(cs)
		if name == "" {
			continue
		}
		v[FLibCalls]++
		if _, ok := know.Anchors[name]; ok {
			v[FAnchorCalls]++
		}
	}

	// Intraprocedural flow features from reaching definitions.
	reachDone := stagetime.Open(e.Probe, stagetime.ReachDef)
	facts := dataflow.Analyze(f, e.anchorFn)
	reachDone()
	if facts.ParamControlsLoop {
		v[FParamLoop] = 1
	}
	if facts.ParamControlsBranch {
		v[FParamBranch] = 1
	}
	if facts.ParamToAnchor {
		v[FParamAnchor] = 1
	}

	// Interprocedural flow features from call-site analysis.
	sf := dataflow.CallSiteStrings(e.Bin, e.Model, f.Entry, f.Params, e.Intern)
	if sf.ArgsContainString {
		v[FArgStrings] = 1
	}
	v[FNumStrings] = float64(len(sf.Strings))
	return v
}
