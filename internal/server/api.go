package server

import (
	"context"
	"encoding/json"
	"time"

	"fits"
	"fits/internal/evolve"
	"fits/internal/firmware"
	"fits/internal/optbuild"
)

// api.go defines the wire types of the fitsd job API, shared verbatim by
// the server handlers and the typed client package. All result JSON is
// deliberately byte-stable: field order is fixed by the struct layout,
// candidate and alert orders carry explicit deterministic sort keys, and
// timing/cache diagnostics live on the job envelope — never inside the
// result — so resubmitting identical firmware yields identical result
// bytes.

// Job states, as reported in JobStatus.State.
const (
	StateQueued  = "queued"
	StateRunning = "running"
	StateDone    = "done"
	StateFailed  = "failed"
	// StateInterrupted marks a job that was mid-run when the daemon
	// crashed: its work is lost but its submission was acknowledged, so
	// on restart it is reported terminal-and-retryable rather than
	// silently dropped. Resubmitting the same bytes re-runs it (or, if a
	// result reached disk first, serves it instantly).
	StateInterrupted = "interrupted"
	StateCanceled    = "canceled"
)

// TerminalState reports whether a job in this state will never run again.
func TerminalState(s string) bool {
	return s == StateDone || s == StateFailed || s == StateCanceled || s == StateInterrupted
}

// Failure reasons, reported in JobStatus.Reason alongside State "failed"
// so callers can distinguish retryable from permanent failures.
const (
	// ReasonCorrupt marks a job that failed because the submitted image
	// is malformed (the error chain includes firmware.ErrCorrupt);
	// fetching its result yields 422, and retrying the same bytes can
	// never succeed.
	ReasonCorrupt = "corrupt_image"
	// ReasonPanic marks a job whose analysis panicked on a hostile image;
	// the panic was confined to the job and the daemon stayed up.
	ReasonPanic = "panic"
)

// KindDiff marks a job submitted via POST /v1/diffs; KindCorpus one
// submitted via POST /v1/corpora. Plain analysis jobs (POST /v1/jobs) have
// an empty kind. kind.go's table maps each kind to its route, envelope and
// pipeline.
const (
	KindDiff   = "diff"
	KindCorpus = "corpus"
)

// SubmitRequest is the JSON body of POST /v1/jobs. Exactly one of Firmware
// (base64 image bytes) and Path (a file readable by the server process)
// must be set. The same request also travels as multipart/form-data: an
// optional "options" part (the Options JSON) and a "firmware" part of raw
// image bytes, with no base64 step (see EncodeSubmission). A raw
// application/octet-stream body is the shorthand for {"firmware": <body>}
// with default options.
type SubmitRequest struct {
	Firmware []byte        `json:"firmware,omitempty"`
	Path     string        `json:"path,omitempty"`
	Options  optbuild.Spec `json:"options"`
}

// DiffSubmitRequest is the JSON body of POST /v1/diffs. Each side names its
// firmware exactly one way: inline base64 bytes or a path readable by the
// server process. The two sides may mix transports. As multipart/form-data
// the request is an optional "options" part plus "old_firmware" and
// "new_firmware" parts of raw bytes.
type DiffSubmitRequest struct {
	OldFirmware []byte        `json:"old_firmware,omitempty"`
	NewFirmware []byte        `json:"new_firmware,omitempty"`
	OldPath     string        `json:"old_path,omitempty"`
	NewPath     string        `json:"new_path,omitempty"`
	Options     optbuild.Spec `json:"options"`
}

// CorpusSubmitRequest is the JSON body of POST /v1/corpora. Exactly one of
// Corpus (the base64 bytes of a fits.PackCorpus container) and Path (a
// packed corpus file readable by the server process) must be set. As
// multipart/form-data the request is an optional "options" part plus a
// "corpus" part of raw container bytes. A raw application/octet-stream body
// is the shorthand for {"corpus": <body>} with default options. The result
// is the CorpusReport JSON of fits.XScan.
type CorpusSubmitRequest struct {
	Corpus  []byte        `json:"corpus,omitempty"`
	Path    string        `json:"path,omitempty"`
	Options optbuild.Spec `json:"options"`
}

// Request is a submit envelope: *SubmitRequest, *DiffSubmitRequest or
// *CorpusSubmitRequest. Its method lists the options and the named inputs,
// in the order the kind's runner receives them; it is unexported, so no
// other type is a Request.
type Request interface {
	envelope() (optbuild.Spec, []input)
}

// input is one input of an envelope, given inline or as a server-side path,
// with the JSON names of the two fields. inlineField also names the input's
// part in a multipart submission.
type input struct {
	inline                 []byte
	path                   string
	inlineField, pathField string
}

func (r *SubmitRequest) envelope() (optbuild.Spec, []input) {
	return r.Options, []input{{r.Firmware, r.Path, "firmware", "path"}}
}

func (r *DiffSubmitRequest) envelope() (optbuild.Spec, []input) {
	return r.Options, []input{
		{r.OldFirmware, r.OldPath, "old_firmware", "old_path"},
		{r.NewFirmware, r.NewPath, "new_firmware", "new_path"},
	}
}

func (r *CorpusSubmitRequest) envelope() (optbuild.Spec, []input) {
	return r.Options, []input{{r.Corpus, r.Path, "corpus", "path"}}
}

// SubmitResponse is the 202 body of POST /v1/jobs.
type SubmitResponse struct {
	ID string `json:"id"`
	// Location is the relative URL polled for status.
	Location string `json:"location"`
	State    string `json:"state"`
}

// CacheDelta reports model reuse for one job: models lifted fresh vs.
// served from the process-wide cache.
type CacheDelta struct {
	Lifted int `json:"lifted"`
	Reused int `json:"reused"`
}

// JobStatus is one job as reported by GET /v1/jobs and GET /v1/jobs/{id}.
type JobStatus struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// Kind is "diff" for evolution diffs, "corpus" for corpus scans and
	// empty for plain analyses.
	Kind        string        `json:"kind,omitempty"`
	SHA256      string        `json:"sha256"`
	SizeBytes   int           `json:"size_bytes"`
	Options     optbuild.Spec `json:"options"`
	SubmittedAt time.Time     `json:"submitted_at"`
	StartedAt   *time.Time    `json:"started_at,omitempty"`
	FinishedAt  *time.Time    `json:"finished_at,omitempty"`
	// ElapsedMS is the run duration (started→finished); diagnostic, like
	// Cache, and therefore not part of Result.
	ElapsedMS int64  `json:"elapsed_ms,omitempty"`
	Error     string `json:"error,omitempty"`
	// Reason classifies a failure ("corrupt_image", "panic"); empty for
	// ordinary errors and non-failed states.
	Reason string      `json:"reason,omitempty"`
	Cache  *CacheDelta `json:"cache,omitempty"`
	// Progress is the most recent coarse progress line of a running corpus
	// job ("round 2: 5 binaries, 3 tainted endpoints"); empty otherwise.
	Progress string `json:"progress,omitempty"`
	// Result is the analysis result JSON, present once State is "done"
	// (also served raw by GET /v1/jobs/{id}/result).
	Result json.RawMessage `json:"result,omitempty"`
}

// ListResponse is the body of GET /v1/jobs.
type ListResponse struct {
	Jobs []JobStatus `json:"jobs"`
}

// ErrorResponse is the body of every non-2xx JSON response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// HealthResponse is the body of GET /healthz (503 while draining).
type HealthResponse struct {
	Status   string `json:"status"`
	Draining bool   `json:"draining,omitempty"`
}

// JobResult is the stable analysis result of one firmware image.
type JobResult struct {
	Vendor  string         `json:"vendor"`
	Product string         `json:"product"`
	Version string         `json:"version"`
	Targets []TargetReport `json:"targets"`
}

// TargetReport is the per-network-binary slice of a JobResult.
type TargetReport struct {
	Path       string           `json:"path"`
	Binary     string           `json:"binary"`
	NumFuncs   int              `json:"num_funcs"`
	Candidates []fits.Candidate `json:"candidates"`
	// Alerts is present only when the job requested a taint scan.
	Alerts []fits.Alert `json:"alerts,omitempty"`
}

// DiffJobResult is the stable result of one evolution diff. Like JobResult
// it is byte-stable: all orders are deterministic and no wall-clock values
// appear, so resubmitting the same version pair yields identical bytes.
type DiffJobResult struct {
	Vendor     string `json:"vendor"`
	Product    string `json:"product"`
	OldVersion string `json:"old_version"`
	NewVersion string `json:"new_version"`
	// ReusedFuncs / TotalFuncs count the new version's functions whose
	// analysis was carried over from the old version.
	ReusedFuncs     int                `json:"reused_funcs"`
	TotalFuncs      int                `json:"total_funcs"`
	ReuseRatio      float64            `json:"reuse_ratio"`
	AlertsAppeared  int                `json:"alerts_appeared"`
	AlertsFixed     int                `json:"alerts_fixed"`
	AlertsPersisted int                `json:"alerts_persisted"`
	ITSAppeared     int                `json:"its_appeared"`
	ITSFixed        int                `json:"its_fixed"`
	ITSPersisted    int                `json:"its_persisted"`
	Targets         []DiffTargetReport `json:"targets"`
}

// DiffTargetReport is the per-binary slice of a DiffJobResult. Churned and
// persisted alerts are in the coordinates of the version they exist in (new
// for appeared/persisted, old for fixed); the three lists marshal as [] when
// empty.
type DiffTargetReport struct {
	Path              string          `json:"path"`
	MatchedIdentical  int             `json:"matched_identical"`
	MatchedReuse      int             `json:"matched_reuse"`
	MatchedName       int             `json:"matched_name"`
	MatchedSimilarity int             `json:"matched_similarity"`
	UnmatchedNew      int             `json:"unmatched_new"`
	UnmatchedOld      int             `json:"unmatched_old"`
	Renames           []evolve.Rename `json:"renames,omitempty"`
	Appeared          []fits.Alert    `json:"appeared"`
	Fixed             []fits.Alert    `json:"fixed"`
	Persisted         []fits.Alert    `json:"persisted"`
}

// RunOutput is what a Runner hands back for a completed job.
type RunOutput struct {
	// ResultJSON is the marshaled JobResult; it is stored and served
	// verbatim, so equal inputs must produce equal bytes.
	ResultJSON []byte
	Cache      CacheDelta
	// Diff carries the reuse ratio and stage timings of a diff job, for
	// metrics only — never part of ResultJSON, which must stay byte-stable.
	Diff *DiffStats
	// Corpus carries a corpus job's headline numbers, for metrics only.
	Corpus *CorpusStats
}

// DiffStats is the diagnostic slice of a finished diff job.
type DiffStats struct {
	ReuseRatio float64
	Timings    fits.DiffStageTimings
}

// CorpusStats is the diagnostic slice of a finished corpus job, feeding the
// fitsd_corpus_* metrics.
type CorpusStats struct {
	Binaries    int
	Rounds      int
	CrossAlerts int
}

// RunEnv is the server-provided execution environment of one job: the
// process-wide model cache, the worker-pool scheduler shared by every job
// (so concurrent jobs draw analysis goroutines from one budget instead of
// each sizing its own fan-out), and the job's stage timer, whose per-stage
// costs land in the /metrics histograms. Any field may be nil.
type RunEnv struct {
	Cache  *fits.Cache
	Sched  *fits.Scheduler
	Stages *fits.StageTimer
	// Progress receives coarse progress lines from long-running jobs; the
	// server surfaces the latest one in the job's status. May be nil.
	Progress func(string)
	// Truncated is called once per degraded alert a job's result carries
	// (an analysis budget tripped in the alert's function), feeding
	// fitsd_analysis_truncated_total. May be nil.
	Truncated func()
}

// countDegraded calls env.Truncated once per degraded alert in alerts. Every
// runner passes each alert of its result through it.
func (env RunEnv) countDegraded(alerts ...fits.Alert) {
	if env.Truncated == nil {
		return
	}
	for _, a := range alerts {
		if a.Degraded {
			env.Truncated()
		}
	}
}

// Runner executes one job of the given kind ("", KindDiff or KindCorpus)
// on its inputs, in envelope order. The default is DefaultRunner; tests
// substitute stub pipelines to exercise queueing, cancellation and drain
// without firmware fixtures.
type Runner func(ctx context.Context, kind string, in [][]byte, spec optbuild.Spec, env RunEnv) (*RunOutput, error)

// runAnalysis is the plain job pipeline: inference over every network
// binary of in[0], optionally followed by a taint scan, reported as a
// JobResult.
func runAnalysis(ctx context.Context, in [][]byte, spec optbuild.Spec, env RunEnv) (*RunOutput, error) {
	aopts, err := spec.AnalyzeOptions(env.Cache)
	if err != nil {
		return nil, err
	}
	aopts.Scheduler = env.Sched
	aopts.Stages = env.Stages
	res, err := fits.AnalyzeContext(ctx, in[0], aopts)
	if err != nil {
		return nil, err
	}
	jr := JobResult{
		Vendor:  res.Vendor,
		Product: res.Product,
		Version: res.Version,
		Targets: make([]TargetReport, 0, len(res.Targets)),
	}
	for _, t := range res.Targets {
		tr := TargetReport{Path: t.Path, Binary: t.Binary, NumFuncs: t.NumFuncs,
			Candidates: append([]fits.Candidate{}, t.TopCandidates(spec.TopK)...)}
		if spec.Scan {
			sopts, err := spec.ScanOptions(t)
			if err != nil {
				return nil, err
			}
			if tr.Alerts, err = t.ScanContext(ctx, sopts); err != nil {
				return nil, err
			}
			env.countDegraded(tr.Alerts...)
		}
		jr.Targets = append(jr.Targets, tr)
	}
	b, err := json.Marshal(jr)
	if err != nil {
		return nil, err
	}
	return &RunOutput{
		ResultJSON: b,
		Cache:      CacheDelta{Lifted: res.Cache.Lifted, Reused: res.Cache.Reused},
	}, nil
}

// runDiff is the KindDiff pipeline: both versions (in[0] old, in[1] new)
// are analyzed and scanned, the new one incrementally against the old, and
// the churn report is rendered as a DiffJobResult.
func runDiff(ctx context.Context, in [][]byte, spec optbuild.Spec, env RunEnv) (*RunOutput, error) {
	dopts, err := spec.DiffOptions(env.Cache)
	if err != nil {
		return nil, err
	}
	dopts.Scheduler = env.Sched
	dopts.Stages = env.Stages
	d, err := fits.DiffContext(ctx, in[0], in[1], dopts)
	if err != nil {
		return nil, err
	}
	r := d.Report
	jr := DiffJobResult{
		Vendor:          d.New.Vendor,
		Product:         d.New.Product,
		OldVersion:      d.Old.Version,
		NewVersion:      d.New.Version,
		ReusedFuncs:     r.ReusedFuncs,
		TotalFuncs:      r.TotalFuncs,
		ReuseRatio:      r.ReuseRatio,
		AlertsAppeared:  r.AlertsAppeared,
		AlertsFixed:     r.AlertsFixed,
		AlertsPersisted: r.AlertsPersisted,
		ITSAppeared:     r.ITSAppeared,
		ITSFixed:        r.ITSFixed,
		ITSPersisted:    r.ITSPersisted,
		Targets:         make([]DiffTargetReport, 0, len(r.Targets)),
	}
	for _, td := range r.Targets {
		tr := DiffTargetReport{
			Path:              td.Path,
			MatchedIdentical:  td.MatchedIdentical,
			MatchedReuse:      td.MatchedReuse,
			MatchedName:       td.MatchedName,
			MatchedSimilarity: td.MatchedSimilarity,
			UnmatchedNew:      td.UnmatchedNew,
			UnmatchedOld:      td.UnmatchedOld,
			Renames:           td.Renames,
			Appeared:          append([]fits.Alert{}, td.Appeared...),
			Fixed:             append([]fits.Alert{}, td.Fixed...),
			Persisted:         append([]fits.Alert{}, td.Persisted...),
		}
		env.countDegraded(tr.Appeared...)
		env.countDegraded(tr.Fixed...)
		env.countDegraded(tr.Persisted...)
		jr.Targets = append(jr.Targets, tr)
	}
	b, err := json.Marshal(jr)
	if err != nil {
		return nil, err
	}
	return &RunOutput{
		ResultJSON: b,
		Cache: CacheDelta{
			Lifted: d.Old.Cache.Lifted + d.New.Cache.Lifted,
			Reused: d.Old.Cache.Reused + d.New.Cache.Reused,
		},
		Diff: &DiffStats{ReuseRatio: r.ReuseRatio, Timings: d.Timings},
	}, nil
}

// runCorpus is the KindCorpus pipeline: it unpacks the corpus container
// in[0] (fits.PackCorpus bytes) and runs the cross-binary taint fixpoint
// over the file set. The result JSON is the CorpusReport verbatim —
// byte-stable across worker counts and cache temperature, so resubmitting
// an identical corpus yields identical bytes.
func runCorpus(ctx context.Context, in [][]byte, spec optbuild.Spec, env RunEnv) (*RunOutput, error) {
	xopts, err := spec.XScanOptions(env.Cache)
	if err != nil {
		return nil, err
	}
	xopts.Scheduler = env.Sched
	xopts.Stages = env.Stages
	xopts.Progress = env.Progress
	img, err := firmware.Unpack(in[0])
	if err != nil {
		return nil, err
	}
	rep, err := fits.XScanContext(ctx, img.Files, xopts)
	if err != nil {
		return nil, err
	}
	for _, a := range rep.Alerts {
		env.countDegraded(a.Finding)
	}
	b, err := json.Marshal(rep)
	if err != nil {
		return nil, err
	}
	return &RunOutput{
		ResultJSON: b,
		Corpus: &CorpusStats{
			Binaries:    len(rep.Binaries),
			Rounds:      rep.Rounds,
			CrossAlerts: rep.CrossHit,
		},
	}, nil
}
