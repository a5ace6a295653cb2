// Package infer is the complete ITS inference pipeline of the paper's
// Algorithm 2: extract behavioral representations for the target's custom
// functions and the dependency libraries' anchor functions, select
// candidates by behavior clustering with the complexity filter, and rank
// candidates by similarity to the anchor matrix. Anchor vectors are memoized
// per dependency library, under that library's hash alone; a target's own
// terms are added to them afterwards.
//
// Every stage is switchable to the paper's baselines (RQ3 representations,
// RQ4 strategies and metrics, feature ablations), so the evaluation harness
// drives one code path for all experiments.
package infer

import (
	"context"
	"fmt"
	"sort"

	"fits/internal/altrep"
	"fits/internal/bfv"
	"fits/internal/binimg"
	"fits/internal/cfg"
	"fits/internal/cluster"
	"fits/internal/dataflow"
	"fits/internal/intern"
	"fits/internal/know"
	"fits/internal/loader"
	"fits/internal/modelcache"
	"fits/internal/pool"
	"fits/internal/score"
	"fits/internal/stagetime"
)

// Representation selects the function representation.
type Representation uint8

// Representations: BFV is the paper's; the others are RQ3 baselines.
const (
	RepBFV Representation = iota
	RepAugmentedCFG
	RepAttributedCFG
)

func (r Representation) String() string {
	switch r {
	case RepBFV:
		return "BFV"
	case RepAugmentedCFG:
		return "Augmented-CFG"
	case RepAttributedCFG:
		return "Attributed-CFG"
	}
	return fmt.Sprintf("rep(%d)", uint8(r))
}

// Strategy selects the candidate-selection stage.
type Strategy uint8

// Strategies: clustering is the paper's; the others are RQ4 baselines that
// replace clustering with direct scoring after optional preprocessing.
const (
	StrategyCluster Strategy = iota
	StrategyNone
	StrategyPCA
	StrategyStandardize
	StrategyNormalize
)

func (s Strategy) String() string {
	switch s {
	case StrategyCluster:
		return "cluster"
	case StrategyNone:
		return "none"
	case StrategyPCA:
		return "pca"
	case StrategyStandardize:
		return "standardize"
	case StrategyNormalize:
		return "normalize"
	}
	return fmt.Sprintf("strategy(%d)", uint8(s))
}

// Config selects every pipeline variant.
type Config struct {
	Representation Representation
	Strategy       Strategy
	Metric         score.Metric
	// DropFeature removes one BFV dimension (ablation); -1 keeps all.
	DropFeature int
	DBSCAN      cluster.Params
	// Parallelism sizes the private Scheduler extracting per-function
	// vectors when Sched is nil; 0 means runtime.GOMAXPROCS(0). Output is
	// deterministic at any value.
	Parallelism int
	// Sched, when non-nil, draws every fan-out from a shared worker budget:
	// an analysis hands its own Scheduler down, and batched corpus runs hand
	// one to every image's pipeline.
	Sched *pool.Scheduler
	// Intern canonicalizes strings materialized during extraction (call-site
	// constants); nil disables interning. Rankings are byte-identical either
	// way.
	Intern *intern.Table
	// Probe, when set, charges vector extraction, clustering and scoring to
	// the Infer stage and reaching definitions to ReachDef. Rankings are
	// unaffected.
	Probe stagetime.Probe
	// Cache memoizes the per-target base vectors (custom functions and
	// anchors) by binary content hash and representation. Variant sweeps
	// that only mask features (DropFeature) or change strategy/metric derive
	// from the cached base instead of re-extracting. A nil Cache keeps
	// nothing.
	Cache *modelcache.Cache
}

// DefaultConfig is the paper's configuration: BFV + clustering + cosine.
func DefaultConfig() Config {
	return Config{
		Representation: RepBFV,
		Strategy:       StrategyCluster,
		Metric:         score.Cosine,
		DropFeature:    -1,
		DBSCAN:         cluster.DefaultParams,
	}
}

// pcaComponents is the projection width of the StrategyPCA baseline.
const pcaComponents = 4

// Ranking is the inference result for one target binary.
type Ranking struct {
	Path   string
	Binary string
	Ranked []score.Ranked
	// Diagnostics.
	NumFuncs      int
	NumCandidates int
	NumAnchors    int
}

// Top returns the first k ranked entries; a negative k returns none.
func (r *Ranking) Top(k int) []score.Ranked {
	return r.Ranked[:min(max(k, 0), len(r.Ranked))]
}

// scheduled returns cfgn with a Scheduler for its fan-outs: a private one
// sized from Parallelism when the caller shared none. Every exported entry
// point applies it once, so the internal fan-outs all call Sched.ForEach.
func scheduled(cfgn Config) Config {
	if cfgn.Sched == nil {
		cfgn.Sched = pool.NewScheduler(cfgn.Parallelism)
	}
	return cfgn
}

// newExtractor builds a bfv extractor wired with the config's intern table
// and probe.
func newExtractor(bin *binimg.Binary, m *cfg.Model, cfgn Config) *bfv.Extractor {
	ex := bfv.New(bin, m)
	ex.Intern = cfgn.Intern
	ex.Probe = cfgn.Probe
	return ex
}

// vectorFor computes one function's representation vector.
func vectorFor(rep Representation, ex *bfv.Extractor, bin *binimg.Binary, m *cfg.Model, f *cfg.Function) bfv.Vector {
	switch rep {
	case RepAugmentedCFG:
		return altrep.AugmentedCFG(bin, m, f)
	case RepAttributedCFG:
		return altrep.AttributedCFG(bin, m, f)
	default:
		return ex.FuncVector(f)
	}
}

// cachedVectors memoizes a vector-slice computation under key, returning a
// copy so callers may transform elements in place (ablation masking,
// preprocessing) without corrupting the cached base.
func cachedVectors(c *modelcache.Cache, key string, compute func() ([]bfv.Vector, error)) ([]bfv.Vector, error) {
	v, _, err := c.GetOrCompute(key, func() (any, int64, error) {
		vecs, err := compute()
		if err != nil {
			return nil, 0, err
		}
		return vecs, int64(len(vecs)*bfv.Dim*8) + 64, nil
	})
	if err != nil {
		return nil, err
	}
	base := v.([]bfv.Vector)
	return append(make([]bfv.Vector, 0, len(base)), base...), nil
}

// customVectors extracts the representation vector of every custom function,
// in CustomFuncs order, fanning out on the config's Scheduler. The whole
// per-target slice is memoized on (content hash, representation):
// RQ3/RQ4 and ablation sweeps re-rank the same base vectors many times and
// only the first pass pays for extraction.
func customVectors(ctx context.Context, t *loader.Target, cfgn Config, customs []*cfg.Function) ([]bfv.Vector, error) {
	compute := func() ([]bfv.Vector, error) {
		ex := newExtractor(t.Bin, t.Model, cfgn)
		out := make([]bfv.Vector, len(customs))
		err := cfgn.Sched.ForEach(ctx, len(customs), func(i int) error {
			out[i] = vectorFor(cfgn.Representation, ex, t.Bin, t.Model, customs[i])
			return nil
		})
		if err != nil {
			return nil, err
		}
		return out, nil
	}
	return cachedVectors(cfgn.Cache, modelcache.Key("bfv", vectorSig(cfgn), t.Hash), compute)
}

// vectorSig is the configuration component of vector cache keys: the
// representation.
func vectorSig(cfgn Config) string {
	return "rep=" + cfgn.Representation.String()
}

// TargetVectors returns a target's custom functions in model order together
// with their base representation vectors (before any feature ablation). The
// evolve package uses it to align renamed functions across firmware versions
// by vector similarity.
func TargetVectors(ctx context.Context, t *loader.Target, cfgn Config) ([]*cfg.Function, []bfv.Vector, error) {
	customs := t.Model.CustomFuncs()
	vecs, err := customVectors(ctx, t, scheduled(cfgn), customs)
	if err != nil {
		return nil, nil, err
	}
	return customs, vecs, nil
}

// anchorVectors returns the anchor matrix of eq. 2: the representation
// vector of every anchor export in the target's dependency libraries, in
// serial order (libraries by name, exports in table order). A library's
// vectors depend on its bytes alone, so they are memoized under its content
// hash and shared by every target and image linking it. For BFV the
// target's own terms are then added on every call, since the library alone
// understates how busy an anchor is.
func anchorVectors(ctx context.Context, t *loader.Target, cfgn Config) ([]bfv.Vector, error) {
	libs := make([]string, 0, len(t.Libs))
	for name := range t.Libs {
		libs = append(libs, name)
	}
	sort.Strings(libs)
	var stubCallers map[string]int
	if cfgn.Representation == RepBFV {
		stubCallers = importCallers(t.Model)
	}
	var out []bfv.Vector
	for _, lib := range libs {
		bin, m := t.Libs[lib], t.LibModels[lib]
		if m == nil {
			return nil, fmt.Errorf("infer: %s: library %s has no model", t.Path, lib)
		}
		rows := anchorRows(bin, m)
		key := modelcache.Key("anchors", vectorSig(cfgn), t.LibHashes[lib])
		vecs, err := cachedVectors(cfgn.Cache, key, func() ([]bfv.Vector, error) {
			ex := newExtractor(bin, m, cfgn)
			vecs := make([]bfv.Vector, len(rows))
			err := cfgn.Sched.ForEach(ctx, len(rows), func(i int) error {
				vecs[i] = vectorFor(cfgn.Representation, ex, bin, m, rows[i].f)
				return nil
			})
			return vecs, err
		})
		if err != nil {
			return nil, err
		}
		if cfgn.Representation == RepBFV {
			if err := addTargetTerms(ctx, t, cfgn, rows, vecs, stubCallers); err != nil {
				return nil, err
			}
		}
		out = append(out, vecs...)
	}
	return out, nil
}

// anchorRow is one row of a library's anchor matrix.
type anchorRow struct {
	name  string
	arity int
	f     *cfg.Function
}

// anchorRows lists the anchor exports of one library that its model
// recovered, in export-table order.
func anchorRows(bin *binimg.Binary, m *cfg.Model) []anchorRow {
	var rows []anchorRow
	for _, e := range bin.Exports {
		arity, ok := know.Anchors[e.Name]
		if !ok {
			continue
		}
		if f, ok := m.FuncAt(e.Addr); ok {
			rows = append(rows, anchorRow{name: e.Name, arity: arity, f: f})
		}
	}
	return rows
}

// importCallers counts the target's call sites per import name.
func importCallers(m *cfg.Model) map[string]int {
	n := map[string]int{}
	for _, f := range m.FuncsInOrder() {
		for _, cs := range f.Calls {
			if cs.ImportName != "" {
				n[cs.ImportName]++
			}
		}
	}
	return n
}

// addTargetTerms adds the target's side to one library's anchor BFVs: the
// target's call sites of an anchor's PLT stub count as its callers (keyed by
// export address, the last anchor name at an address winning), and their
// string arguments merge into its string features.
func addTargetTerms(ctx context.Context, t *loader.Target, cfgn Config, rows []anchorRow, vecs []bfv.Vector, stubCallers map[string]int) error {
	callers := make(map[uint32]int, len(rows))
	for _, r := range rows {
		callers[r.f.Entry] = stubCallers[r.name]
	}
	return cfgn.Sched.ForEach(ctx, len(rows), func(i int) error {
		merged := stagetime.Open(cfgn.Probe, stagetime.Infer)
		vecs[i][bfv.FCallers] += float64(callers[rows[i].f.Entry])
		mergeTargetStrings(t, rows[i].name, rows[i].arity, cfgn.Intern, &vecs[i])
		merged()
		return nil
	})
}

// mergeTargetStrings folds the target binary's call sites of an anchor's PLT
// stub into the anchor's interprocedural string features: an anchor is
// called from the whole firmware, not only from inside its own library.
func mergeTargetStrings(t *loader.Target, name string, arity int, tab *intern.Table, vec *bfv.Vector) {
	stub, ok := findStub(t.Bin, name)
	if !ok {
		return
	}
	sf := dataflow.CallSiteStrings(t.Bin, t.Model, stub, arity, tab)
	if sf.ArgsContainString {
		(*vec)[bfv.FArgStrings] = 1
	}
	(*vec)[bfv.FNumStrings] += float64(len(sf.Strings))
}

func findStub(bin *binimg.Binary, name string) (uint32, bool) {
	for _, im := range bin.Imports {
		if im.Name == name {
			return im.Stub, true
		}
	}
	return 0, false
}

// InferTarget runs the full inference pipeline on one target.
func InferTarget(t *loader.Target, cfgn Config) *Ranking {
	//fitslint:ignore ctxflow context-free compatibility wrapper; cancellation-aware callers use InferTargetContext
	r, _ := InferTargetContext(context.Background(), t, cfgn)
	return r
}

// InferTargetContext is InferTarget with cancellation and bounded
// parallelism: per-function representation extraction — the pipeline's hot
// loop — fans out on cfgn's Scheduler, the context is checked before each
// function, and results assemble in function order, so the ranking is
// byte-identical at every worker count. The only error returned
// is the context's. The whole ranking is memoized on the target's and its
// libraries' content hashes plus every variant knob, so re-analyzing
// unchanged binaries — the common case in evolution diffs — skips
// clustering and scoring entirely.
func InferTargetContext(ctx context.Context, t *loader.Target, cfgn Config) (*Ranking, error) {
	cfgn = scheduled(cfgn)
	// Building the key is all the inference a cached ranking costs.
	keyed := stagetime.Open(cfgn.Probe, stagetime.Infer)
	key := rankingKey(t, cfgn)
	keyed()
	v, _, err := cfgn.Cache.GetOrCompute(key, func() (any, int64, error) {
		r, err := inferTarget(ctx, t, cfgn)
		if err != nil {
			return nil, 0, err
		}
		core := rankingCore{
			Ranked:        r.Ranked,
			NumFuncs:      r.NumFuncs,
			NumCandidates: r.NumCandidates,
			NumAnchors:    r.NumAnchors,
		}
		return core, int64(len(r.Ranked))*16 + 64, nil
	})
	if err != nil {
		return nil, err
	}
	core := v.(rankingCore)
	return &Ranking{
		Path:          t.Path,
		Binary:        t.Bin.Name,
		Ranked:        append(make([]score.Ranked, 0, len(core.Ranked)), core.Ranked...),
		NumFuncs:      core.NumFuncs,
		NumCandidates: core.NumCandidates,
		NumAnchors:    core.NumAnchors,
	}, nil
}

// rankingKey is the memo key of one target's ranking: the target's and its
// libraries' content hashes plus every Config field that can change the
// ranking. Parallelism, Sched, Intern, Probe and Cache never change output
// and are left out.
func rankingKey(t *loader.Target, cfgn Config) string {
	sig := fmt.Sprintf("%s|strategy=%s|metric=%s|drop=%d|eps=%g|minpts=%d",
		vectorSig(cfgn), cfgn.Strategy, cfgn.Metric, cfgn.DropFeature,
		cfgn.DBSCAN.Eps, cfgn.DBSCAN.MinPts)
	return modelcache.Key("ranking", sig, contentHashes(t)...)
}

// contentHashes lists the hashes every derived artifact of t reads: the
// target's own, then its libraries' in name order.
func contentHashes(t *loader.Target) []modelcache.Hash {
	libs := make([]string, 0, len(t.LibHashes))
	for name := range t.LibHashes {
		libs = append(libs, name)
	}
	sort.Strings(libs)
	hashes := make([]modelcache.Hash, 0, len(libs)+1)
	hashes = append(hashes, t.Hash)
	for _, name := range libs {
		hashes = append(hashes, t.LibHashes[name])
	}
	return hashes
}

// rankingCore is the cacheable part of a Ranking: everything except the
// path, which is a property of the image layout rather than the binary's
// content and is filled in fresh on every cache hit.
type rankingCore struct {
	Ranked        []score.Ranked
	NumFuncs      int
	NumCandidates int
	NumAnchors    int
}

func inferTarget(ctx context.Context, t *loader.Target, cfgn Config) (*Ranking, error) {
	customs := t.Model.CustomFuncs()
	base, err := customVectors(ctx, t, cfgn, customs)
	if err != nil {
		return nil, err
	}
	anchors, err := anchorVectors(ctx, t, cfgn)
	if err != nil {
		return nil, err
	}
	// Opened only now: the extraction fan-outs above span their own items.
	defer stagetime.Open(cfgn.Probe, stagetime.Infer)()
	points := make([]cluster.Point, len(customs))
	for i, f := range customs {
		points[i] = cluster.Point{Entry: f.Entry, Vec: base[i]}
	}

	if cfgn.DropFeature >= 0 && cfgn.DropFeature < bfv.Dim {
		for i := range points {
			points[i].Vec = points[i].Vec.Drop(cfgn.DropFeature)
		}
		for i := range anchors {
			anchors[i] = anchors[i].Drop(cfgn.DropFeature)
		}
	}

	rank := &Ranking{
		Path:       t.Path,
		Binary:     t.Bin.Name,
		NumFuncs:   len(customs),
		NumAnchors: len(anchors),
	}

	// Candidate selection.
	cands := map[uint32]bfv.Vector{}
	switch cfgn.Strategy {
	case StrategyCluster:
		for _, e := range cluster.Candidates(points, cfgn.DBSCAN) {
			cands[e] = bfv.Vector{}
		}
		for _, p := range points {
			if _, ok := cands[p.Entry]; ok {
				cands[p.Entry] = p.Vec
			}
		}
	case StrategyPCA, StrategyStandardize, StrategyNormalize:
		// Fit the transform on candidates and anchors together so scores
		// remain comparable, then score everything (no filtering).
		all := make([]bfv.Vector, 0, len(points)+len(anchors))
		for _, p := range points {
			all = append(all, p.Vec)
		}
		all = append(all, anchors...)
		var tr []bfv.Vector
		switch cfgn.Strategy {
		case StrategyPCA:
			tr = cluster.PCA(all, pcaComponents)
		case StrategyStandardize:
			tr = cluster.Standardize(all)
		default:
			tr = cluster.Normalize(all)
		}
		for i, p := range points {
			cands[p.Entry] = tr[i]
		}
		anchors = tr[len(points):]
	default: // StrategyNone
		for _, p := range points {
			cands[p.Entry] = p.Vec
		}
	}
	rank.NumCandidates = len(cands)
	rank.Ranked = score.Rank(cfgn.Metric, cands, anchors)
	return rank, nil
}

// InferAll runs inference on every target of a loaded firmware.
func InferAll(res *loader.Result, cfgn Config) []*Ranking {
	//fitslint:ignore ctxflow context-free compatibility wrapper; cancellation-aware callers use InferAllContext
	out, _ := InferAllContext(context.Background(), res, cfgn)
	return out
}

// InferAllContext runs inference on every target, fanning targets out on
// the same Scheduler as the per-function extraction inside each target.
// Rankings are returned in target order regardless of completion order.
func InferAllContext(ctx context.Context, res *loader.Result, cfgn Config) ([]*Ranking, error) {
	cfgn = scheduled(cfgn)
	out := make([]*Ranking, len(res.Targets))
	err := cfgn.Sched.ForEach(ctx, len(res.Targets), func(i int) error {
		r, err := InferTargetContext(ctx, res.Targets[i], cfgn)
		if err != nil {
			return err
		}
		out[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// AnchorVectorsForTest exposes anchor vector extraction to corpus-tuning
// tests.
func AnchorVectorsForTest(t *loader.Target) []bfv.Vector {
	//fitslint:ignore ctxflow test-only helper; corpus-tuning tests need no cancellation
	out, _ := anchorVectors(context.Background(), t, scheduled(DefaultConfig()))
	return out
}
