// Package fits is a Go reproduction of FITS — inFerring Intermediate Taint
// Sources — from "FITS: Inferring Intermediate Taint Sources for Effective
// Vulnerability Analysis of IoT Device Firmware" (ASPLOS '23).
//
// FITS ranks the custom functions of stripped firmware binaries as
// intermediate taint sources (ITSs): functions that fetch a field of stored
// user input and hand it onward. Starting taint analysis at an ITS instead
// of at interface library functions shortens the data-flow paths to sinks
// dramatically, which is what makes static vulnerability discovery on large
// closed-source firmware tractable.
//
// The package exposes the complete pipeline:
//
//	result, err := fits.Analyze(firmwareBytes, fits.DefaultOptions())
//	for _, t := range result.Targets {
//	    for i, c := range t.TopCandidates(3) {
//	        fmt.Printf("%d. %#x score %.3f\n", i+1, c.Entry, c.Score)
//	    }
//	}
//
// Everything the pipeline rests on is implemented in internal packages: the
// firmware container and unpacker, a three-architecture instruction set and
// loader, an IR lifter, CFG/call-graph recovery with under-constrained
// symbolic execution, reaching-definition and call-site dataflow, DBSCAN
// clustering, similarity scoring, and two taint engines (a static
// reachability engine and a budgeted symbolic-execution engine) for the
// paper's vulnerability-discovery evaluation.
package fits

import (
	"context"
	"fmt"
	"sort"
	"time"

	"fits/internal/infer"
	"fits/internal/intern"
	"fits/internal/know"
	"fits/internal/loader"
	"fits/internal/modelcache"
	"fits/internal/pool"
	"fits/internal/scan"
	"fits/internal/score"
	"fits/internal/stagetime"
	"fits/internal/taint"
)

// StageTimer accumulates per-stage self time and allocations of one
// analysis or a whole corpus batch (decode, lift, cfg, reachdef, infer,
// taint, alias, pathcheck), each stage net of the stages nested in it; see
// Options.Stages. The zero value is ready to use.
type StageTimer = stagetime.Timer

// Scheduler is a shared bounded worker budget. One Scheduler handed to many
// analyses (Options.Scheduler, AnalyzeCorpus) bounds their combined
// goroutines instead of each call sizing its own fan-out; nested fan-outs
// never deadlock (the calling goroutine always runs items itself).
type Scheduler = pool.Scheduler

// NewScheduler returns a scheduler bounding concurrent analysis work to
// `workers` goroutines (<= 0 means runtime.GOMAXPROCS(0)).
func NewScheduler(workers int) *Scheduler { return pool.NewScheduler(workers) }

// Cache is a content-addressed, concurrency-safe cache of loaded binary
// models and derived feature vectors, keyed by the SHA-256 of the binary
// bytes plus the analysis configuration. One Cache may back any number of
// concurrent Analyze calls; repeated analyses of firmware images sharing
// binaries (vendor families, version sweeps) skip re-lifting shared content.
type Cache = modelcache.Cache

// CacheStats reports the cache counters; see Cache.Stats.
type CacheStats = modelcache.Stats

// NewCache returns a cache bounded to at most maxEntries cached artifacts
// and approximately maxBytes of resident model memory (least recently used
// entries are evicted first). Zero selects the defaults (4096 entries, 1
// GiB).
func NewCache(maxEntries int, maxBytes int64) *Cache {
	return modelcache.New(maxEntries, maxBytes)
}

// Options configures Analyze.
type Options struct {
	// Metric selects the similarity metric (default cosine).
	Metric score.Metric
	// Parallelism sizes the analysis's private Scheduler when none is
	// given: one budget bounds every fan-out layer of the pipeline
	// (per-binary model building, per-target inference, per-function
	// feature extraction) together. 0 means runtime.GOMAXPROCS(0); 1 runs
	// the pipeline serially. The result is byte-identical at every setting.
	Parallelism int
	// Cache, when non-nil, memoizes decoded binaries, whole-binary models
	// and per-target feature vectors across Analyze calls. Results are
	// byte-identical with and without a cache; only Elapsed and the
	// CacheInfo diagnostics differ.
	Cache *Cache
	// Scheduler, when non-nil, draws every fan-out of this analysis from a
	// shared worker budget instead of a private one sized from
	// Parallelism. AnalyzeCorpus sets it to batch images; long-running
	// services share one across jobs. Results are byte-identical either way.
	Scheduler *Scheduler
	// Stages, when non-nil, accumulates this analysis's per-stage self time
	// and allocations, and its scans'. Purely diagnostic: results are
	// unaffected. At Parallelism 1 the stages partition the analysis; at
	// higher settings wall times sum across workers and allocation counts
	// mix concurrent stages.
	Stages *StageTimer
	// intern is the per-analysis string intern table. Analyze creates one
	// per call; AnalyzeCorpus shares one across the batch so names repeated
	// between images collapse too. Interning never changes output bytes.
	intern *intern.Table
}

// DefaultOptions returns the paper's configuration.
func DefaultOptions() Options { return Options{Metric: score.Cosine} }

// inferConfig maps analysis options onto the inference pipeline's
// configuration.
func inferConfig(opts Options) infer.Config {
	cfgn := infer.DefaultConfig()
	cfgn.Metric = opts.Metric
	cfgn.Cache = opts.Cache
	cfgn.Sched = opts.Scheduler
	cfgn.Intern = opts.intern
	cfgn.Probe = opts.Stages
	return cfgn
}

// Candidate is one ranked intermediate-taint-source candidate.
type Candidate = score.Ranked

// TargetResult is the inference outcome for one network binary.
type TargetResult struct {
	Path       string // filesystem path within the firmware
	Binary     string
	NumFuncs   int
	Candidates []Candidate // descending score

	target *loader.Target
	// cache is the cache the analysis ran with; Scan memoizes alerts in it,
	// and a nil cache keeps none.
	cache *Cache
	// stages carries the analysis's stage timer into Scan so taint-engine
	// time lands in the same Timer as the inference stages; nil disables.
	stages *StageTimer
	// prec memoizes the precision passes' pure per-function results, so
	// repeated Scan calls on one target don't recompute them.
	prec *taint.PrecisionCache
}

// TopCandidates returns the k best-ranked candidates; a negative k returns
// none.
func (t *TargetResult) TopCandidates(k int) []Candidate {
	return t.Candidates[:min(max(k, 0), len(t.Candidates))]
}

// CacheInfo summarizes model reuse during one analysis. Lifted counts
// whole-binary models built fresh; Reused counts models served from the
// cache (always zero without one). Stats snapshots the cache's lifetime
// counters after the analysis.
type CacheInfo struct {
	Lifted int
	Reused int
	Stats  CacheStats
}

// Result is the outcome of analyzing one firmware image.
type Result struct {
	Vendor  string
	Product string
	Version string
	Targets []*TargetResult
	Elapsed time.Duration
	// Cache reports model reuse; diagnostic only and excluded from
	// determinism comparisons, like Elapsed.
	Cache CacheInfo
}

// Analyze unpacks a firmware image, selects its network binaries, and ranks
// their custom functions as intermediate taint sources.
func Analyze(raw []byte, opts Options) (*Result, error) {
	return AnalyzeContext(context.Background(), raw, opts)
}

// AnalyzeContext is Analyze with cancellation and bounded parallelism: model
// building, per-target inference and per-function feature extraction fan out
// on one Scheduler (opts.Scheduler, or a private one of opts.Parallelism
// workers), and the context is checked at target and function granularity,
// so scanning a large image can be aborted mid-flight (the error is then
// ctx.Err()). Targets are assembled in input order and
// every ranking carries explicit deterministic sort keys, so the Result is
// byte-identical — Elapsed aside — at every worker count.
func AnalyzeContext(ctx context.Context, raw []byte, opts Options) (*Result, error) {
	start := time.Now()
	if opts.Scheduler == nil {
		opts.Scheduler = NewScheduler(opts.Parallelism)
	}
	if opts.intern == nil {
		opts.intern = intern.NewTable()
	}
	res, err := loader.LoadContext(ctx, raw, loader.Options{
		Cache:  opts.Cache,
		Sched:  opts.Scheduler,
		Intern: opts.intern,
		Stages: opts.Stages,
	})
	if err != nil {
		return nil, err
	}
	rankings, err := infer.InferAllContext(ctx, res, inferConfig(opts))
	if err != nil {
		return nil, err
	}
	out := &Result{
		Vendor:  res.Image.Vendor,
		Product: res.Image.Product,
		Version: res.Image.Version,
		Targets: make([]*TargetResult, len(res.Targets)),
	}
	for i, r := range rankings {
		out.Targets[i] = &TargetResult{
			Path: r.Path, Binary: r.Binary, NumFuncs: r.NumFuncs, Candidates: r.Ranked,
			target: res.Targets[i], cache: opts.Cache, stages: opts.Stages,
			prec: new(taint.PrecisionCache),
		}
	}
	out.Elapsed = time.Since(start)
	out.Cache = CacheInfo{Lifted: res.Lifted, Reused: res.Reused, Stats: opts.Cache.Stats()}
	return out, nil
}

// AnalyzeCorpus analyzes a batch of firmware images under one shared worker
// budget, intern table, cache and stage timer: image A's model building and
// image B's feature extraction draw from the same scheduler instead of each
// call sizing its own fan-out, and strings repeated across images are
// interned once. Results[i] corresponds to images[i] and is byte-identical
// to Analyze(images[i], opts) at every worker count; the error of the
// lowest-indexed failing image aborts the batch. Supplying opts.Scheduler
// lets several corpus calls (or a service's jobs) share one budget; without
// one the batch gets its own, sized from opts.Parallelism.
func AnalyzeCorpus(ctx context.Context, images [][]byte, opts Options) ([]*Result, error) {
	if opts.Scheduler == nil {
		opts.Scheduler = NewScheduler(opts.Parallelism)
	}
	if opts.intern == nil {
		opts.intern = intern.NewTable()
	}
	out := make([]*Result, len(images))
	err := opts.Scheduler.ForEach(ctx, len(images), func(i int) error {
		r, err := AnalyzeContext(ctx, images[i], opts)
		if err != nil {
			return fmt.Errorf("fits: image %d: %w", i, err)
		}
		out[i] = r
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Engine selects a taint analysis engine for Scan.
type Engine = scan.Engine

// Engines: the static reachability engine (STA) and the budgeted
// symbolic-execution engine (Karonte-style).
const (
	EngineStatic   = scan.Static
	EngineSymbolic = scan.Symbolic
)

// Alert is one reported potentially-vulnerable flow: Site is the sink call
// instruction address, Func the entry of the function containing it, Kind
// "buffer-overflow" or "command-hijack", Source "cts-region", "cts-value"
// or "its". Degraded marks alerts from functions where an analysis budget
// tripped (dataflow fixpoint or alias facts): precision around them fell
// back to the coarser passes.
type Alert = taint.Finding

// ScanOptions configures a taint scan.
type ScanOptions struct {
	Engine Engine
	// ITS lists the intermediate taint sources to seed, typically verified
	// entries from TopCandidates. Empty means classical sources only.
	ITS []uint32
	// ITSOut lists pointer-output sources: function entry to the output
	// parameter indexes whose pointees carry the fetched data.
	ITSOut map[uint32][]int
	// StringFilter drops alerts keyed on system-data fields (static
	// engine only).
	StringFilter bool
	// NoAlias disables the bounded points-to pass; NoPathcheck disables
	// the path-feasibility pass (both static-engine only, on by default).
	NoAlias     bool
	NoPathcheck bool
}

// Scan runs taint analysis over one analyzed target.
func (t *TargetResult) Scan(opts ScanOptions) ([]Alert, error) {
	return t.ScanContext(context.Background(), opts)
}

// ScanContext is Scan with cancellation. Both engines are internally
// budgeted, so a single run is bounded; the context is checked before the
// engine starts and again before alerts are materialized, which is the
// granularity long-running services (fitsd) cancel at. Alerts are returned
// in a fully deterministic order (site, function, sink, kind, source), so
// repeated scans of one target are byte-identical. When the analysis ran
// with a cache, the alert list is kept under the target's content hash and
// the full scan configuration, so re-scanning an unchanged binary — the
// common case when diffing firmware versions — is a lookup.
func (t *TargetResult) ScanContext(ctx context.Context, opts ScanOptions) ([]Alert, error) {
	if t.target == nil {
		return nil, fmt.Errorf("fits: target was not produced by Analyze")
	}
	raw, err := scan.Run(ctx, t.target, opts.Engine, taint.Options{
		UseCTS: true, ITS: opts.ITS, ITSOut: opts.ITSOut,
		StringFilter: opts.StringFilter,
		NoAlias:      opts.NoAlias, NoPathcheck: opts.NoPathcheck,
		Precision: t.prec,
	}, t.cache, t.stages)
	if err != nil {
		return nil, err
	}
	out := make([]Alert, 0, len(raw))
	for _, a := range raw {
		if a.Reported() {
			out = append(out, a.Finding())
		}
	}
	return out, nil
}

// Sinks returns the sink library functions recognized by the engines,
// sorted by name.
func Sinks() []string {
	out := make([]string, 0, len(know.Sinks))
	for name := range know.Sinks {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Sources returns the classical taint source functions recognized by the
// engines, sorted by name.
func Sources() []string {
	out := make([]string, 0, len(know.Sources))
	for name := range know.Sources {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Anchors returns the anchor function names used for behavioral scoring,
// sorted by name.
func Anchors() []string {
	out := make([]string, 0, len(know.Anchors))
	for name := range know.Anchors {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}
