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

// bestITS finds the best-ranked planted ITS across rankings, each ranking
// checked against its own binary's ITSs: the ranking holding it, its
// 1-based rank and its entry; rank 0 when no planted ITS is ranked.
func bestITS(man *synth.Manifest, rankings []*infer.Ranking) (best *infer.Ranking, rank int, entry uint32) {
	for _, r := range rankings {
		for i, rr := range r.Ranked {
			if man.IsITS(r.Binary, rr.Entry) {
				if rank == 0 || i+1 < rank {
					best, rank, entry = r, i+1, rr.Entry
				}
				break
			}
		}
	}
	return best, rank, entry
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
	_, out.ITSRank, _ = bestITS(&s.Manifest, out.Rankings)
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
		row.Top1, row.Top2, row.Top3 = OverallPrecision(rs)
		var dur time.Duration
		for _, r := range rs {
			dur += r.Elapsed
		}
		row.AvgTime = dur / time.Duration(len(rs))
		rows = append(rows, row)
		totTime += dur
	}
	if len(results) > 0 {
		avg := PrecisionRow{Dataset: "Average", Vendor: "-", Series: "-", N: len(results),
			AvgTime: totTime / time.Duration(len(results))}
		avg.Top1, avg.Top2, avg.Top3 = OverallPrecision(results)
		rows = append(rows, avg)
	}
	return rows
}

// FormatTable3 renders rows in the paper's layout; the Series column is as
// wide as its widest entry, and at least 16.
func FormatTable3(rows []PrecisionRow) string {
	w := 16
	for _, r := range rows {
		w = max(w, len(r.Series))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-8s %-*s %4s %6s %6s %6s %10s\n",
		"Dataset", "Vendor", w, "Series", "#FW", "Top-1", "Top-2", "Top-3", "AvgTime")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %-8s %-*s %4d %5.0f%% %5.0f%% %5.0f%% %10s\n",
			r.Dataset, r.Vendor, w, r.Series, r.N,
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
