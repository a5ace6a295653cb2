package fits

import (
	"context"
	"time"

	"fits/internal/evolve"
)

// DiffOptions configures Diff.
type DiffOptions struct {
	Options
	// TopK is how many top-ranked candidates per target form the inferred
	// ITS set carried through the churn computation. Zero means 3.
	TopK int
	// Engine and StringFilter configure the taint scans run on both
	// versions.
	Engine       Engine
	StringFilter bool
	// NoAlias / NoPathcheck disable the precision passes on both sides.
	NoAlias     bool
	NoPathcheck bool
}

// DefaultDiffOptions returns the paper's configuration with the static
// engine and the default candidate depth.
func DefaultDiffOptions() DiffOptions {
	return DiffOptions{Options: DefaultOptions(), TopK: 3}
}

// DiffStageTimings breaks a diff's wall time into its pipeline stages.
type DiffStageTimings struct {
	AnalyzeOld time.Duration
	ScanOld    time.Duration
	AnalyzeNew time.Duration
	ScanNew    time.Duration
	Align      time.Duration
}

// DiffResult is the outcome of comparing two firmware versions.
type DiffResult struct {
	Old *Result
	New *Result
	// OldAlerts and NewAlerts are each version's scan results, in target
	// order, for callers that want the absolute picture next to the churn.
	OldAlerts [][]Alert
	NewAlerts [][]Alert
	Report    *evolve.DiffReport
	Timings   DiffStageTimings
	Elapsed   time.Duration
}

// Diff analyzes two versions of a firmware image and reports what changed:
// which alerts and inferred taint sources appeared, were fixed, or
// persisted, and how much of the new version's analysis was reused from the
// old one.
func Diff(oldRaw, newRaw []byte, opts DiffOptions) (*DiffResult, error) {
	return DiffContext(context.Background(), oldRaw, newRaw, opts)
}

// DiffContext is Diff with cancellation. Each version is analyzed and
// scanned as an ordinary Analyze, old first; evolve.BuildReport then pairs
// the two, and is the only stage that knows they are versions of one image.
// Reuse between the sides comes from the content-addressed cache: binaries
// the versions share hit the models, feature vectors, rankings and alerts
// the old side memoized, so the new-version results are byte-identical to a
// cold Analyze of the same image. Without a cache in opts a private one is
// created for the call, since a nil cache would recompute every shared
// binary. Without a Scheduler, both analyses and the alignment share one
// private Scheduler sized from opts.Parallelism.
func DiffContext(ctx context.Context, oldRaw, newRaw []byte, opts DiffOptions) (*DiffResult, error) {
	start := time.Now()
	if opts.Cache == nil {
		opts.Cache = NewCache(0, 0)
	}
	if opts.Scheduler == nil {
		opts.Scheduler = NewScheduler(opts.Parallelism)
	}
	if opts.TopK <= 0 {
		opts.TopK = 3
	}

	stage := time.Now()
	oldRes, err := AnalyzeContext(ctx, oldRaw, opts.Options)
	if err != nil {
		return nil, err
	}
	out := &DiffResult{Old: oldRes}
	out.Timings.AnalyzeOld = time.Since(stage)

	stage = time.Now()
	oldAlerts, oldSide, err := scanSide(ctx, oldRes, opts)
	if err != nil {
		return nil, err
	}
	out.OldAlerts = oldAlerts
	out.Timings.ScanOld = time.Since(stage)

	stage = time.Now()
	newRes, err := AnalyzeContext(ctx, newRaw, opts.Options)
	if err != nil {
		return nil, err
	}
	out.New = newRes
	out.Timings.AnalyzeNew = time.Since(stage)

	stage = time.Now()
	newAlerts, newSide, err := scanSide(ctx, newRes, opts)
	if err != nil {
		return nil, err
	}
	out.NewAlerts = newAlerts
	out.Timings.ScanNew = time.Since(stage)

	stage = time.Now()
	report, err := evolve.BuildReport(ctx, oldSide, newSide, inferConfig(opts.Options))
	if err != nil {
		return nil, err
	}
	out.Report = report
	out.Timings.Align = time.Since(stage)
	out.Elapsed = time.Since(start)
	return out, nil
}

// scanSide runs the taint scan on every target of one analyzed version and
// packages the results for alignment.
func scanSide(ctx context.Context, res *Result, opts DiffOptions) ([][]Alert, []evolve.TargetAnalysis, error) {
	alerts := make([][]Alert, len(res.Targets))
	side := make([]evolve.TargetAnalysis, len(res.Targets))
	for i, tr := range res.Targets {
		ta := evolve.TargetAnalysis{Target: tr.target, ITS: tr.TopCandidates(opts.TopK)}
		its := make([]uint32, len(ta.ITS))
		for k, c := range ta.ITS {
			its[k] = c.Entry
		}
		got, err := tr.ScanContext(ctx, ScanOptions{
			Engine: opts.Engine, ITS: its, StringFilter: opts.StringFilter,
			NoAlias: opts.NoAlias, NoPathcheck: opts.NoPathcheck,
		})
		if err != nil {
			return nil, nil, err
		}
		alerts[i] = got
		ta.Alerts = got
		side[i] = ta
	}
	return alerts, side, nil
}
