// Package optbuild is the single place that maps user-facing analysis
// options onto the fits API. Both surfaces — CLI flags on cmd/fits and
// cmd/fwscan, and the JSON job options of the fitsd service — funnel
// through one Spec type, so an option behaves identically no matter how it
// arrived and a new knob is added exactly once.
//
// A Spec is JSON-serializable (it is the "options" object of the fitsd job
// API) and bindable onto a flag.FlagSet. Normalize validates it and fills
// defaults; AnalyzeOptions and ScanOptions then translate it into
// fits.Options and fits.ScanOptions.
package optbuild

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"time"

	"fits"
	"fits/internal/score"
)

// DefaultTopK is how many ranked candidates are reported per target and,
// when ITS seeding is on, seeded into the taint scan.
const DefaultTopK = 3

// Duration is a time.Duration that marshals to/from the Go duration string
// form ("30s", "2m"), the natural spelling in both JSON bodies and flags.
type Duration time.Duration

// MarshalJSON renders the duration string, or 0 for the zero value.
func (d Duration) MarshalJSON() ([]byte, error) {
	if d == 0 {
		return []byte("0"), nil
	}
	return json.Marshal(time.Duration(d).String())
}

// UnmarshalJSON accepts a Go duration string or the literal 0.
func (d *Duration) UnmarshalJSON(b []byte) error {
	if string(b) == "0" || string(b) == "null" {
		*d = 0
		return nil
	}
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return fmt.Errorf("optbuild: duration must be a string like \"30s\": %w", err)
	}
	v, err := time.ParseDuration(s)
	if err != nil {
		return fmt.Errorf("optbuild: %w", err)
	}
	*d = Duration(v)
	return nil
}

// String implements flag.Value.
func (d *Duration) String() string {
	if d == nil || *d == 0 {
		return "0s"
	}
	return time.Duration(*d).String()
}

// Set implements flag.Value.
func (d *Duration) Set(s string) error {
	v, err := time.ParseDuration(s)
	if err != nil {
		return err
	}
	*d = Duration(v)
	return nil
}

// Spec describes one analysis request. The zero value Normalizes to the
// paper's defaults: cosine metric, static engine, no ITS seeding, top-3
// reporting, string filter on.
type Spec struct {
	// Engine selects the taint engine used when Scan is set:
	// "static" (default) or "symbolic".
	Engine string `json:"engine,omitempty"`
	// Scan runs taint analysis on each target after inference.
	Scan bool `json:"scan,omitempty"`
	// SeedITS seeds the top-K inferred candidates as intermediate taint
	// sources of the scan.
	SeedITS bool `json:"seed_its,omitempty"`
	// TopK bounds both reported candidates and seeded ITSs (default 3).
	TopK int `json:"top_k,omitempty"`
	// StringFilter drops alerts keyed on system-data fields (static engine
	// only). nil means the default, true.
	StringFilter *bool `json:"string_filter,omitempty"`
	// Metric names the similarity metric: "cosine" (default), "euclidean",
	// "manhattan" or "pearson".
	Metric string `json:"metric,omitempty"`
	// Parallelism bounds worker goroutines at every pipeline fan-out
	// (0 = all CPUs).
	Parallelism int `json:"parallelism,omitempty"`
	// Timeout aborts the analysis after this long (0 = no per-request
	// limit; fitsd additionally enforces its server-wide job timeout).
	Timeout Duration `json:"timeout,omitempty"`
	// NoAlias disables the bounded points-to pass of the static scan;
	// NoPathcheck disables the path-feasibility post-pass. Both precision
	// passes are on by default.
	NoAlias     bool `json:"no_alias,omitempty"`
	NoPathcheck bool `json:"no_pathcheck,omitempty"`
	// NoCache opts this request out of the shared model cache.
	NoCache bool `json:"no_cache,omitempty"`
	// XMode selects the seeding mode of a corpus scan (fits xscan, POST
	// /v1/corpora): "cts", "its" or "cross" (default). Ignored by plain
	// analysis and diff requests.
	XMode string `json:"xmode,omitempty"`
}

// Normalize validates the spec in place and fills defaults. It is
// idempotent; every consumer calls it before translating.
func (s *Spec) Normalize() error {
	if s.TopK < 0 {
		return fmt.Errorf("optbuild: top_k must be >= 0, got %d", s.TopK)
	}
	if s.TopK == 0 {
		s.TopK = DefaultTopK
	}
	if s.Parallelism < 0 {
		return fmt.Errorf("optbuild: parallelism must be >= 0, got %d", s.Parallelism)
	}
	if s.Timeout < 0 {
		return fmt.Errorf("optbuild: timeout must be >= 0, got %s", time.Duration(s.Timeout))
	}
	if s.Engine == "" {
		s.Engine = "static"
	}
	if _, err := s.EngineValue(); err != nil {
		return err
	}
	if s.Metric == "" {
		s.Metric = "cosine"
	}
	if _, err := s.MetricValue(); err != nil {
		return err
	}
	if s.StringFilter == nil {
		t := true
		s.StringFilter = &t
	}
	switch s.XMode {
	case "", "cts", "its", "cross":
	default:
		return fmt.Errorf(`optbuild: unknown xmode %q (want "cts", "its" or "cross")`, s.XMode)
	}
	return nil
}

// EngineValue maps the engine name onto the fits engine selector.
func (s *Spec) EngineValue() (fits.Engine, error) {
	switch s.Engine {
	case "", "static":
		return fits.EngineStatic, nil
	case "symbolic":
		return fits.EngineSymbolic, nil
	}
	return 0, fmt.Errorf(`optbuild: unknown engine %q (want "static" or "symbolic")`, s.Engine)
}

// MetricValue maps the metric name onto the score metric.
func (s *Spec) MetricValue() (score.Metric, error) {
	switch s.Metric {
	case "", "cosine":
		return score.Cosine, nil
	case "euclidean":
		return score.Euclidean, nil
	case "manhattan":
		return score.Manhattan, nil
	case "pearson":
		return score.Pearson, nil
	}
	return 0, fmt.Errorf(`optbuild: unknown metric %q (want cosine, euclidean, manhattan or pearson)`, s.Metric)
}

// AnalyzeOptions translates the spec into pipeline options. cache may be
// nil; it is also ignored when the spec opts out of caching.
func (s *Spec) AnalyzeOptions(cache *fits.Cache) (fits.Options, error) {
	if err := s.Normalize(); err != nil {
		return fits.Options{}, err
	}
	m, err := s.MetricValue()
	if err != nil {
		return fits.Options{}, err
	}
	opts := fits.DefaultOptions()
	opts.Metric = m
	opts.Parallelism = s.Parallelism
	if !s.NoCache {
		opts.Cache = cache
	}
	return opts, nil
}

// DiffOptions translates the spec into evolution-diff options. A diff
// always scans both versions, so Scan and SeedITS are irrelevant here; the
// engine, filter and top-K knobs carry over directly.
func (s *Spec) DiffOptions(cache *fits.Cache) (fits.DiffOptions, error) {
	aopts, err := s.AnalyzeOptions(cache)
	if err != nil {
		return fits.DiffOptions{}, err
	}
	engine, err := s.EngineValue()
	if err != nil {
		return fits.DiffOptions{}, err
	}
	return fits.DiffOptions{
		Options:      aopts,
		TopK:         s.TopK,
		Engine:       engine,
		StringFilter: *s.StringFilter,
		NoAlias:      s.NoAlias,
		NoPathcheck:  s.NoPathcheck,
	}, nil
}

// XScanOptions translates the spec into corpus-scan options. The caller
// wires Scheduler, Stages and Progress itself — those are execution
// environment, not request options.
func (s *Spec) XScanOptions(cache *fits.Cache) (fits.XScanOptions, error) {
	if err := s.Normalize(); err != nil {
		return fits.XScanOptions{}, err
	}
	opts := fits.XScanOptions{
		Mode:         s.XMode,
		TopK:         s.TopK,
		StringFilter: *s.StringFilter,
		NoAlias:      s.NoAlias,
		NoPathcheck:  s.NoPathcheck,
		Parallelism:  s.Parallelism,
	}
	if !s.NoCache {
		opts.Cache = cache
	}
	return opts, nil
}

// ScanOptions translates the spec into scan options for one analyzed
// target, seeding its top-K candidates when SeedITS is set.
func (s *Spec) ScanOptions(t *fits.TargetResult) (fits.ScanOptions, error) {
	if err := s.Normalize(); err != nil {
		return fits.ScanOptions{}, err
	}
	engine, err := s.EngineValue()
	if err != nil {
		return fits.ScanOptions{}, err
	}
	opts := fits.ScanOptions{
		Engine: engine, StringFilter: *s.StringFilter,
		NoAlias: s.NoAlias, NoPathcheck: s.NoPathcheck,
	}
	if s.SeedITS && t != nil {
		for _, c := range t.TopCandidates(s.TopK) {
			opts.ITS = append(opts.ITS, c.Entry)
		}
	}
	return opts, nil
}

// Context applies the spec's timeout to parent. The cancel func must
// always be called.
func (s *Spec) Context(parent context.Context) (context.Context, context.CancelFunc) {
	if s.Timeout > 0 {
		return context.WithTimeout(parent, time.Duration(s.Timeout))
	}
	return context.WithCancel(parent)
}

// BindAnalyzeFlags registers the pipeline flags shared by every CLI:
// -top, -j, -timeout, -metric.
func (s *Spec) BindAnalyzeFlags(fs *flag.FlagSet) {
	fs.IntVar(&s.TopK, "top", DefaultTopK, "ranked candidates to report (and to seed with -its)")
	fs.IntVar(&s.Parallelism, "j", 0, "worker goroutines for the analysis pipeline (0 = all CPUs)")
	fs.Var(&s.Timeout, "timeout", "abort analysis after this duration (0 = no limit)")
	fs.StringVar(&s.Metric, "metric", "cosine", "similarity metric: cosine, euclidean, manhattan or pearson")
}

// BindScanFlags registers the taint-scan flags: -engine, -its, -filter.
func (s *Spec) BindScanFlags(fs *flag.FlagSet) {
	fs.StringVar(&s.Engine, "engine", "static", `engine: "static" (STA) or "symbolic" (Karonte-style)`)
	fs.BoolVar(&s.SeedITS, "its", false, "infer intermediate taint sources and seed the top -top")
	s.StringFilter = new(bool)
	fs.BoolVar(s.StringFilter, "filter", true, "filter alerts keyed on system-data fields")
	fs.BoolVar(&s.NoAlias, "no-alias", false, "disable the bounded points-to precision pass")
	fs.BoolVar(&s.NoPathcheck, "no-pathcheck", false, "disable the path-feasibility precision pass")
}

// CacheConfig is the flags → fits.Cache mapping shared by the CLIs and
// fitsd: a byte budget, an entry budget, and an off switch.
type CacheConfig struct {
	Disable    bool
	MaxBytes   int64
	MaxEntries int
}

// BindFlags registers -cache-size, -cache-entries and -no-cache.
func (c *CacheConfig) BindFlags(fs *flag.FlagSet) {
	fs.Int64Var(&c.MaxBytes, "cache-size", 0, "model cache byte budget (0 = default 1 GiB)")
	fs.IntVar(&c.MaxEntries, "cache-entries", 0, "model cache entry budget (0 = default 4096)")
	fs.BoolVar(&c.Disable, "no-cache", false, "disable the content-addressed model cache")
}

// New builds the cache, or nil when disabled.
func (c CacheConfig) New() *fits.Cache {
	if c.Disable {
		return nil
	}
	return fits.NewCache(c.MaxEntries, c.MaxBytes)
}

// Profile is the -cpuprofile flag shared by cmd/fits and cmd/fwscan. Off by
// default, it never changes what a command prints.
type Profile struct {
	CPU string
}

// BindFlags registers -cpuprofile.
func (p *Profile) BindFlags(fs *flag.FlagSet) {
	fs.StringVar(&p.CPU, "cpuprofile", "", "write a CPU profile of the run to `file` (go tool pprof reads it)")
}

// Start begins CPU profiling into the flag's file, if one was given, and
// returns the function that ends the profile and closes the file. A run
// that exits early through log.Fatal leaves the profile incomplete.
func (p *Profile) Start() (stop func() error, err error) {
	if p.CPU == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(p.CPU)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		return f.Close()
	}, nil
}
