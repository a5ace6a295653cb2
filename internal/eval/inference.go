// Package eval is the experiment harness: it reruns every table and figure
// of the paper's evaluation section against the synthetic corpus, scoring
// inference rankings and taint alerts against the generators' ground-truth
// manifests. Taint scans go through scan.Run, the path fits and fitsd use.
// eval owns no cache: each entry point that loads firmware takes the
// caller's *modelcache.Cache (in infer.Config for the inference sweeps);
// nil computes everything. A cancelled ctx stops the run early, and the
// tables then count only the work finished before it.
package eval

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"fits/internal/infer"
	"fits/internal/loader"
	"fits/internal/pool"
	"fits/internal/synth"
)

// InferenceResult is the inference outcome for one firmware sample.
type InferenceResult struct {
	Manifest synth.Manifest
	Rankings []*infer.Ranking
	// ITSRank is the 1-based rank of the first true ITS across the
	// sample's targets; 0 when no true ITS was ranked (or none exists).
	ITSRank int
	// LoadErr records pre-processing failure, or the context's error when
	// the run was cancelled.
	LoadErr error
	Elapsed time.Duration
}

// TopN reports whether a true ITS appears within the first n ranked
// functions.
func (r *InferenceResult) TopN(n int) bool {
	return r.ITSRank > 0 && r.ITSRank <= n
}

// itsRank finds the best rank of any manifest ITS across rankings.
func itsRank(man *synth.Manifest, rankings []*infer.Ranking) int {
	best := 0
	for _, r := range rankings {
		planted := man.ITSIn(r.Binary)
		for i, rr := range r.Ranked {
			if isITS(planted, rr.Entry) {
				if best == 0 || i+1 < best {
					best = i + 1
				}
				break
			}
		}
	}
	return best
}

// RunInference loads and infers one sample under a configuration; the load
// shares cfg's Cache and Scheduler with the inference.
func RunInference(ctx context.Context, s *synth.Sample, cfg infer.Config) InferenceResult {
	start := time.Now()
	out := InferenceResult{Manifest: s.Manifest}
	res, err := loader.LoadContext(ctx, s.Packed, loader.Options{Cache: cfg.Cache, Sched: cfg.Sched})
	if err == nil {
		out.Rankings, err = infer.InferAllContext(ctx, res, cfg)
	}
	out.LoadErr = err
	out.ITSRank = itsRank(&s.Manifest, out.Rankings)
	out.Elapsed = time.Since(start)
	return out
}

// RunInferenceCorpus evaluates the whole corpus under a configuration.
// Samples are batched onto one corpus-level scheduler (cfg.Sched, or a fresh
// one sized from cfg.Parallelism): sample-level and per-function fan-outs
// draw from a single worker budget, so a sweep never oversubscribes the
// machine by multiplying the two. Results are positionally identical to the
// sequential loop at every worker count; only the per-sample Elapsed — wall
// time under concurrency — differs.
func RunInferenceCorpus(ctx context.Context, samples []*synth.Sample, cfg infer.Config) []InferenceResult {
	if cfg.Sched == nil {
		cfg.Sched = pool.NewScheduler(cfg.Parallelism)
	}
	out := make([]InferenceResult, len(samples))
	_ = cfg.Sched.ForEach(ctx, len(samples), func(i int) error {
		out[i] = RunInference(ctx, samples[i], cfg)
		return nil
	})
	return out
}

// PrecisionRow is one row of Table 3: per dataset half and vendor.
type PrecisionRow struct {
	Dataset string // "Karonte" or "Latest"
	Vendor  string
	Series  string
	N       int
	Top1    float64
	Top2    float64
	Top3    float64
	AvgTime time.Duration
}

// Table3 aggregates inference results into the paper's Table 3 rows plus a
// final average row.
func Table3(results []InferenceResult) []PrecisionRow {
	type key struct {
		dataset string
		vendor  string
	}
	groups := map[key][]InferenceResult{}
	series := map[key]map[string]bool{}
	var order []key
	for _, r := range results {
		ds := "Karonte"
		if r.Manifest.Latest {
			ds = "Latest"
		}
		k := key{dataset: ds, vendor: r.Manifest.Vendor}
		if _, ok := groups[k]; !ok {
			order = append(order, k)
			series[k] = map[string]bool{}
		}
		groups[k] = append(groups[k], r)
		series[k][r.Manifest.Series] = true
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].dataset != order[j].dataset {
			return order[i].dataset < order[j].dataset
		}
		return order[i].vendor < order[j].vendor
	})

	var rows []PrecisionRow
	var totN int
	var tot1, tot2, tot3 float64
	var totTime time.Duration
	for _, k := range order {
		rs := groups[k]
		row := PrecisionRow{Dataset: k.dataset, Vendor: k.vendor, N: len(rs)}
		var names []string
		for s := range series[k] {
			names = append(names, s)
		}
		sort.Strings(names)
		row.Series = strings.Join(names, "/")
		var t1, t2, t3 int
		var dur time.Duration
		for _, r := range rs {
			if r.TopN(1) {
				t1++
			}
			if r.TopN(2) {
				t2++
			}
			if r.TopN(3) {
				t3++
			}
			dur += r.Elapsed
		}
		n := float64(len(rs))
		row.Top1 = float64(t1) / n
		row.Top2 = float64(t2) / n
		row.Top3 = float64(t3) / n
		row.AvgTime = dur / time.Duration(len(rs))
		rows = append(rows, row)
		totN += len(rs)
		tot1 += float64(t1)
		tot2 += float64(t2)
		tot3 += float64(t3)
		totTime += dur
	}
	if totN > 0 {
		rows = append(rows, PrecisionRow{
			Dataset: "Average", Vendor: "-", Series: "-", N: totN,
			Top1:    tot1 / float64(totN),
			Top2:    tot2 / float64(totN),
			Top3:    tot3 / float64(totN),
			AvgTime: totTime / time.Duration(totN),
		})
	}
	return rows
}

// FormatTable3 renders rows in the paper's layout.
func FormatTable3(rows []PrecisionRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-8s %-16s %4s %6s %6s %6s %10s\n",
		"Dataset", "Vendor", "Series", "#FW", "Top-1", "Top-2", "Top-3", "AvgTime")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %-8s %-16s %4d %5.0f%% %5.0f%% %5.0f%% %10s\n",
			r.Dataset, r.Vendor, r.Series, r.N,
			100*r.Top1, 100*r.Top2, 100*r.Top3, r.AvgTime.Round(time.Millisecond))
	}
	return b.String()
}

// OverallPrecision returns the corpus-wide top-1/2/3 rates.
func OverallPrecision(results []InferenceResult) (top1, top2, top3 float64) {
	if len(results) == 0 {
		return
	}
	n := float64(len(results))
	for _, r := range results {
		if r.TopN(1) {
			top1++
		}
		if r.TopN(2) {
			top2++
		}
		if r.TopN(3) {
			top3++
		}
	}
	return top1 / n, top2 / n, top3 / n
}
