package fits

import (
	"context"

	"fits/internal/corpustaint"
	"fits/internal/firmware"
)

// CorpusFile is one file of an unpacked firmware tree handed to XScan:
// binaries, front-end artifacts and configuration alike, with
// slash-separated paths relative to the filesystem root ("bin/httpd",
// "www/index.html").
type CorpusFile struct {
	Path string
	Data []byte
}

// CorpusReport is the deterministic outcome of a corpus scan: per-binary
// summaries, the front-end keyword set, the tainted channel endpoints the
// fixpoint discovered, and alerts with full cross-binary provenance.
type CorpusReport = corpustaint.Report

// CorpusAlert is one corpus finding; see CorpusReport.Alerts.
type CorpusAlert = corpustaint.Alert

// XScanOptions configures a corpus scan.
type XScanOptions struct {
	// Mode seeds the per-binary analyses: "cts" (classical sources only),
	// "its" (plus each binary's top-ranked inferred intermediate sources) or
	// "cross" (plus front-end keyword seeding and the cross-binary channel
	// fixpoint). Empty means "cross".
	Mode string
	// TopK bounds inferred sources per binary in "its" mode (0 = 3).
	TopK int
	// StringFilter drops alerts keyed on system-data fields.
	StringFilter bool
	// NoAlias disables the bounded points-to pass; NoPathcheck disables the
	// path-feasibility pass. Both precision passes are on by default.
	NoAlias     bool
	NoPathcheck bool
	// Parallelism sizes the scan's private Scheduler when none is given
	// (0 = all CPUs); the report is byte-identical at every setting.
	Parallelism int
	// Cache memoizes models, rankings and per-round scan results across
	// calls; reports are byte-identical with and without one.
	Cache *Cache
	// Scheduler, when non-nil, draws every fan-out from a shared budget.
	Scheduler *Scheduler
	// Stages accumulates per-stage costs; nil disables.
	Stages *StageTimer
	// Progress, when non-nil, receives coarse progress lines (load, fixpoint
	// rounds, completion); long-running services surface them per job.
	Progress func(string)
}

// XScan analyzes an unpacked firmware corpus as one system: front-end
// artifacts name the request parameters, border binaries fetching those
// parameters become seeded, and taint crosses binaries over nvram-style
// store, environment and spawned-helper channels until a fixpoint.
func XScan(files []CorpusFile, opts XScanOptions) (*CorpusReport, error) {
	return XScanContext(context.Background(), files, opts)
}

// XScanContext is XScan with cancellation: the context is checked per
// binary inside every fixpoint round, so scanning a large corpus can be
// aborted mid-flight.
func XScanContext(ctx context.Context, files []CorpusFile, opts XScanOptions) (*CorpusReport, error) {
	mode, err := corpustaint.ParseMode(opts.Mode)
	if err != nil {
		return nil, err
	}
	fw := make([]firmware.File, len(files))
	for i, f := range files {
		fw[i] = firmware.File{Path: f.Path, Data: f.Data}
	}
	if opts.Scheduler == nil {
		opts.Scheduler = NewScheduler(opts.Parallelism)
	}
	return corpustaint.Run(ctx, fw, corpustaint.Options{
		Mode:         mode,
		TopK:         opts.TopK,
		StringFilter: opts.StringFilter,
		NoAlias:      opts.NoAlias,
		NoPathcheck:  opts.NoPathcheck,
		Cache:        opts.Cache,
		Scheduler:    opts.Scheduler,
		Stages:       opts.Stages,
		Progress:     opts.Progress,
	})
}

// PackCorpus wraps a corpus file set in the firmware container format for
// transport (fitsctl ships packed corpora to fitsd's /v1/corpora). The
// packing is unencrypted and deterministic; Unpack on the service side
// recovers the identical file set.
func PackCorpus(files []CorpusFile) []byte {
	img := &firmware.Image{Vendor: "corpus", Product: "tree", Files: make([]firmware.File, len(files))}
	for i, f := range files {
		img.Files[i] = firmware.File{Path: f.Path, Data: f.Data}
	}
	return img.Pack(firmware.PackOptions{Scheme: firmware.SchemeNone})
}
