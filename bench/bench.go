// Package bench is the repository benchmark. It generates seeded inputs
// from internal/synth, drives the public fits API and an in-process fitsd
// over loopback, checks every output, and reports the end-to-end metrics
// declared in BENCHMARK.json. A traced run instead reports the per-layer
// metrics: spans recorded around calls into each layer, from outside the
// program (the program itself carries no tracing).
package bench

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

const (
	// Parallelism is the fixed load, never derived from the host: every
	// library op runs at Parallelism 2, and the service gets two
	// closed-loop clients and two workers.
	Parallelism = 2
	// setupRuns is how many times a run builds the program under test and
	// warms it up; setup_s is the median, so work moved into set-up shows.
	setupRuns = 3
)

// Config selects one benchmark run.
type Config struct {
	Workload string
	Seed     int64
	// Duration of the measured closed loop.
	Duration time.Duration
	// Trace selects the traced run: the measured loop, then traced ops
	// each paired with an untraced op on the same input, reported as the
	// per-layer metrics instead of the end-to-end ones.
	Trace bool
	// Spec is the parsed BENCHMARK.json: it names the metrics printed.
	Spec *Spec
	// WorkDir holds the service workload's data directories.
	WorkDir string
	// Small shrinks inputs, warm-up and traced ops so a test can run every
	// workload in seconds.
	Small bool
	// Log receives progress and the human-readable report; nil discards.
	Log io.Writer
}

// Metric is one reported value with its unit.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is one run's outcome. Its JSON form is the result file -compare
// reads; Line is the object printed as the last line of standard output.
type Result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
	// Detail holds workload-specific quality breakdowns and the error
	// share; informational, not gated.
	Detail map[string]float64 `json:"detail,omitempty"`
	// InputDigest hashes every generated input, so equal seeds can be
	// shown to give equal inputs.
	InputDigest string `json:"input_digest"`
	// Spans is the traced run's span log, written out by -spans.
	Spans []Span `json:"-"`
}

// Line is the result as the final stdout line: exactly these four keys.
func (r *Result) Line() any {
	return struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]Metric `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics}
}

// Spec is BENCHMARK.json.
type Spec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []WorkloadSpec `json:"workloads"`
	EndToEnd   []MetricSpec   `json:"end_to_end"`
	PerLayer   []MetricSpec   `json:"per_layer"`
}

// WorkloadSpec names one workload and why it exists.
type WorkloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// MetricSpec declares one metric. Bound applies to end-to-end metrics only.
type MetricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// LoadSpec reads and decodes BENCHMARK.json.
func LoadSpec(path string) (*Spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// workload is one seeded input set plus the op run on it.
type workload interface {
	// prepare generates the inputs from the seed and computes each
	// input's reference output at Parallelism 1; untimed.
	prepare(ctx context.Context, seed int64) error
	// inputs returns every generated input's bytes, in order.
	inputs() [][]byte
	// setup builds the program under test and runs the warm-up ops. Run
	// calls it setupRuns times; the last build is the one measured.
	setup(ctx context.Context) error
	// clients is the number of closed-loop clients.
	clients() int
	// op runs client c's next op and returns its latency. An error, a
	// refused or unfinished job, or an output differing from its
	// reference fails the op.
	op(ctx context.Context, c int) (time.Duration, error)
	// quality scores the reference outputs against the synth manifests.
	quality() quality
	// trace runs the traced ops, each paired with an untraced op on the
	// same input, and returns the layer metrics the workload measures
	// besides the spans.
	trace(ctx context.Context, tr *tracer) (map[string]float64, error)
}

// sizes fixes how much input a workload generates and how many untimed
// ops surround the measured loop.
type sizes struct {
	inputs    int // distinct inputs generated from the seed
	canonical int // of which canonical synth.Dataset() images, scored for quality
	warmup    int // warm-up ops per setup
	traced    int // traced ops, each paired with an untraced op
}

func newWorkload(cfg Config) (workload, error) {
	switch cfg.Workload {
	case "cold-image":
		sz := sizes{inputs: 212, canonical: 53, warmup: 16, traced: 64}
		if cfg.Small {
			sz = sizes{inputs: 4, canonical: 2, warmup: 2, traced: 2}
		}
		return &coldImage{sz: sz}, nil
	case "xscan-corpus":
		sz := sizes{inputs: 32, warmup: 32, traced: 64}
		if cfg.Small {
			sz = sizes{inputs: 3, warmup: 2, traced: 2}
		}
		return &xscanCorpus{sz: sz}, nil
	case "diff-chain":
		sz := sizes{inputs: 40, warmup: 10, traced: 64}
		if cfg.Small {
			sz = sizes{inputs: 2, warmup: 2, traced: 2}
		}
		return &diffChain{sz: sz}, nil
	case "service-mix":
		// The never-seen pool covers about twice what two clients submit in
		// a 15 s run at the throughput measured on a 2-core host.
		sz := sizes{inputs: 1200, canonical: 53, warmup: 300, traced: 64}
		if cfg.Small {
			sz = sizes{inputs: 16, canonical: 2, warmup: 12, traced: 4}
		}
		if cfg.WorkDir == "" {
			return nil, errors.New("service-mix needs a work directory")
		}
		return &serviceMix{sz: sz, workDir: cfg.WorkDir}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", cfg.Workload)
}

// Run executes one benchmark run.
func Run(ctx context.Context, cfg Config) (*Result, error) {
	logw := cfg.Log
	if logw == nil {
		logw = io.Discard
	}
	w, err := newWorkload(cfg)
	if err != nil {
		return nil, err
	}
	if c, ok := w.(interface{ close() error }); ok {
		defer c.close()
	}

	if err := w.prepare(ctx, cfg.Seed); err != nil {
		return nil, fmt.Errorf("%s: preparing inputs: %w", cfg.Workload, err)
	}
	h := sha256.New()
	for _, in := range w.inputs() {
		h.Write(in)
	}
	res := &Result{
		Workload:    cfg.Workload,
		Seed:        cfg.Seed,
		Trace:       cfg.Trace,
		InputDigest: hex.EncodeToString(h.Sum(nil)),
	}

	setups := make([]float64, 0, setupRuns)
	for i := 0; i < setupRuns; i++ {
		runtime.GC()
		start := time.Now()
		if err := w.setup(ctx); err != nil {
			return nil, fmt.Errorf("%s: setup: %w", cfg.Workload, err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	fmt.Fprintf(logw, "%s seed %d: setup %v s, measuring %s\n", cfg.Workload, cfg.Seed, setups, cfg.Duration)

	runtime.GC()
	m := measure(ctx, w, cfg.Duration)
	res.Attempted, res.Failed = len(m.lats), m.failed
	for _, e := range m.errs {
		fmt.Fprintf(logw, "op failed: %v\n", e)
	}

	q := w.quality()
	values := map[string]float64{
		"ops_per_s":       float64(len(m.lats)-m.failed) / m.wall.Seconds(),
		"latency_p50_ms":  ms(percentile(m.lats, 0.50)),
		"latency_p90_ms":  ms(percentile(m.lats, 0.90)),
		"setup_s":         median(setups),
		"alloc_mb_per_op": float64(m.alloc) / float64(max(len(m.lats), 1)) / 1e6,
		"recall_pct":      pct(q.found, q.planted),
		"precision_pct":   pct(q.good, q.alerts),
	}
	res.Detail = q.detail
	if res.Detail == nil {
		res.Detail = map[string]float64{}
	}
	res.Detail["error_pct"] = pct(res.Failed, res.Attempted)
	res.Detail["peak_rss_mb"] = peakRSS()

	declared := cfg.Spec.EndToEnd
	if cfg.Trace {
		declared = cfg.Spec.PerLayer
		tr := newTracer()
		layer, err := w.trace(ctx, tr)
		res.Attempted += 2 * tr.pairs
		if err != nil {
			res.Failed++
			fmt.Fprintf(logw, "traced run failed: %v\n", err)
		}
		values = tr.metrics()
		for k, v := range layer {
			values[k] = v
		}
		values["bench.latency_p99_ms"] = ms(percentile(m.lats, 0.99))
		values["infer.its_top3_pct"] = pct(q.itsHit, q.itsPlanted)
		res.Spans = tr.spans
	}
	res.Correct = res.Failed == 0
	res.Metrics, err = pick(declared, values, cfg.Trace)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.Workload, err)
	}
	report(logw, res, declared)
	return res, nil
}

// timeUnits are the units of metrics that must be measured on every
// workload; a share, count or ratio of a layer a workload does not run is
// reported as 0.
var timeUnits = map[string]bool{"ms": true, "s": true, "us": true}

// pick selects exactly the declared metrics from the computed values,
// failing on a computed metric that is not declared or a declared time
// metric that was not computed.
func pick(declared []MetricSpec, values map[string]float64, trace bool) (map[string]Metric, error) {
	out := make(map[string]Metric, len(declared))
	known := map[string]bool{}
	for _, d := range declared {
		known[d.Name] = true
		v, ok := values[d.Name]
		if !ok && (!trace || timeUnits[d.Unit]) {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		out[d.Name] = Metric{Value: v, Unit: d.Unit}
	}
	var extra []string
	for name := range values {
		if !known[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	if len(extra) > 0 {
		return nil, fmt.Errorf("metrics %v are measured but not declared in BENCHMARK.json", extra)
	}
	return out, nil
}

// measurement is the outcome of the measured closed loop.
type measurement struct {
	lats   []time.Duration
	failed int
	errs   []error // the first few failures, for the log
	wall   time.Duration
	alloc  uint64 // bytes allocated by the whole process
}

// measure runs the workload's clients in a closed loop until d has passed:
// each client sends its next op only when the previous one completed.
func measure(ctx context.Context, w workload, d time.Duration) measurement {
	n := w.clients()
	lats := make([][]time.Duration, n)
	fails := make([]int, n)
	errs := make([][]error, n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				lat, err := w.op(ctx, c)
				lats[c] = append(lats[c], lat)
				if err != nil {
					fails[c]++
					if len(errs[c]) < 3 {
						errs[c] = append(errs[c], err)
					}
				}
			}
		}()
	}
	wg.Wait()
	m := measurement{wall: time.Since(start)}
	runtime.ReadMemStats(&after)
	m.alloc = after.TotalAlloc - before.TotalAlloc
	for c := 0; c < n; c++ {
		m.lats = append(m.lats, lats[c]...)
		m.failed += fails[c]
		m.errs = append(m.errs, errs[c]...)
	}
	return m
}

// peakRSS is the process's peak resident set in MB, or 0 where
// /proc/self/status does not exist.
func peakRSS() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if kb, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			v, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(kb), "kB")), 64)
			return v / 1024
		}
	}
	return 0
}

// percentile is the nearest-rank q-quantile.
func percentile(lats []time.Duration, q float64) time.Duration {
	if len(lats) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), lats...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(k, 0)]
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func pct(num, den int) float64 {
	if den == 0 {
		return 0
	}
	return 100 * float64(num) / float64(den)
}

// digest hashes an op's output in a canonical JSON encoding.
func digest(v any) ([32]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(b), nil
}

// errMismatch marks an op whose output differs from its reference.
var errMismatch = errors.New("output differs from its reference")

// forEachInput runs fn over n inputs on two goroutines: reference outputs
// are computed at Parallelism 1, so two run side by side.
func forEachInput(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for g := 0; g < Parallelism; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < n; i += Parallelism {
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// report writes the human-readable summary.
func report(w io.Writer, r *Result, declared []MetricSpec) {
	fmt.Fprintf(w, "%s seed %d trace=%t: %d ops, %d failed\n", r.Workload, r.Seed, r.Trace, r.Attempted, r.Failed)
	for _, d := range declared {
		m := r.Metrics[d.Name]
		fmt.Fprintf(w, "  %-28s %14.4f %s\n", d.Name, m.Value, m.Unit)
	}
	names := make([]string, 0, len(r.Detail))
	for k := range r.Detail {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  %-28s %14.4f (detail)\n", k, r.Detail[k])
	}
}
