package eval

import (
	"context"
	"fmt"
	"strings"
	"time"

	"fits/internal/infer"
	"fits/internal/loader"
	"fits/internal/modelcache"
	"fits/internal/scan"
	"fits/internal/synth"
	"fits/internal/taint"
)

// EngineKind identifies the four taint configurations of Table 5.
type EngineKind uint8

// Engine kinds.
const (
	EngineKaronte EngineKind = iota
	EngineKaronteITS
	EngineSTA
	EngineSTAITS
)

func (k EngineKind) String() string {
	switch k {
	case EngineKaronte:
		return "Karonte"
	case EngineKaronteITS:
		return "Karonte-ITS"
	case EngineSTA:
		return "STA"
	case EngineSTAITS:
		return "STA-ITS"
	}
	return "engine"
}

// WithITS reports whether the configuration integrates inferred sources.
func (k EngineKind) WithITS() bool { return k == EngineKaronteITS || k == EngineSTAITS }

// BugResult is one engine's outcome on one firmware sample: its alerts
// scored against the manifest, where the bugs are the found flows.
type BugResult struct {
	synth.Tally
	Elapsed time.Duration
}

// inferredITS runs the inference pipeline and returns the verified top-3
// entries usable as taint sources — the paper's workflow: infer, manually
// verify top candidates, then feed confirmed ITSs to the engines. The
// manifest stands in for manual verification. It returns nil once ctx is
// cancelled, the only way inference fails; the scan after it reports that.
func inferredITS(ctx context.Context, cache *modelcache.Cache, s *synth.Sample, t *loader.Target) []uint32 {
	ranking, err := infer.InferTargetContext(ctx, t, cachedConfig(cache))
	if err != nil {
		return nil
	}
	var out []uint32
	for _, r := range ranking.Top(3) {
		if s.Manifest.IsITS(t.Bin.Name, r.Entry) {
			out = append(out, r.Entry)
		}
	}
	return out
}

// runBugEngines applies the four engine configurations of Table 5 to one
// sample through scan.Run, the scan fits and fitsd run, indexed by
// EngineKind. The sample is loaded and each target ranked once for all
// four. Models, rankings and alert lists are memoised in cache (nil
// computes everything); Elapsed is the shared load and ranking plus the
// engine's own scans. A sample that fails to load, or a cancelled ctx,
// leaves the remaining counts at zero.
func runBugEngines(ctx context.Context, cache *modelcache.Cache, s *synth.Sample) (out [4]BugResult) {
	start := time.Now()
	var targets []*loader.Target
	var its [][]uint32
	if res, err := loader.LoadContext(ctx, s.Packed, loader.Options{Cache: cache}); err == nil {
		targets = res.Targets
		for _, t := range targets {
			its = append(its, inferredITS(ctx, cache, s, t))
		}
	}
	prep := time.Since(start)
	for kind := EngineKaronte; kind <= EngineSTAITS; kind++ {
		begin := time.Now()
		var r BugResult
		eng := scan.Static
		if kind == EngineKaronte || kind == EngineKaronteITS {
			eng = scan.Symbolic
		}
		for i, t := range targets {
			opts := taint.Options{UseCTS: true, StringFilter: true}
			if kind.WithITS() {
				opts.ITS = its[i]
			}
			alerts, err := scan.Run(ctx, t, eng, opts, cache, nil)
			if err != nil {
				break
			}
			for _, a := range alerts {
				if a.Reported() {
					r.Add(s.Manifest.Match(t.Bin.Name, a.Func, a.Sink))
				}
			}
		}
		r.Elapsed = prep + time.Since(begin)
		out[kind] = r
	}
	return out
}

// BugRow is one row of Table 5.
type BugRow struct {
	Dataset string
	Vendor  string
	N       int
	// Per engine: alerts, bugs, average time.
	Alerts  [4]int
	Bugs    [4]int
	AvgTime [4]time.Duration
}

// table5 runs all four engines over the corpus and aggregates per
// dataset/vendor rows plus totals.
func table5(ctx context.Context, cache *modelcache.Cache, samples []*synth.Sample) ([]BugRow, [4]int, [4]int) {
	type key struct {
		dataset string
		vendor  string
	}
	rowsBy := map[key]*BugRow{}
	var order []key
	var totalAlerts, totalBugs [4]int
	for _, s := range samples {
		ds := "Karonte"
		if s.Manifest.Latest {
			ds = "Latest"
		}
		k := key{dataset: ds, vendor: s.Manifest.Vendor}
		row, ok := rowsBy[k]
		if !ok {
			row = &BugRow{Dataset: ds, Vendor: s.Manifest.Vendor}
			rowsBy[k] = row
			order = append(order, k)
		}
		row.N++
		for kind, r := range runBugEngines(ctx, cache, s) {
			row.Alerts[kind] += r.Alerts
			row.Bugs[kind] += len(r.Found)
			row.AvgTime[kind] += r.Elapsed
			totalAlerts[kind] += r.Alerts
			totalBugs[kind] += len(r.Found)
		}
	}
	var rows []BugRow
	for _, k := range order {
		row := rowsBy[k]
		for kind := range row.AvgTime {
			row.AvgTime[kind] /= time.Duration(row.N)
		}
		rows = append(rows, *row)
	}
	return rows, totalAlerts, totalBugs
}

// formatTable5 renders rows in the paper's layout.
func formatTable5(rows []BugRow, totalAlerts, totalBugs [4]int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-8s %-8s %4s |", "Dataset", "Vendor", "#FW")
	for kind := EngineKaronte; kind <= EngineSTAITS; kind++ {
		fmt.Fprintf(&b, " %-24s |", kind)
	}
	b.WriteString("\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-8s %-8s %4d |", r.Dataset, r.Vendor, r.N)
		for kind := 0; kind < 4; kind++ {
			fmt.Fprintf(&b, " al=%-4d bugs=%-4d %-7s |", r.Alerts[kind], r.Bugs[kind],
				r.AvgTime[kind].Round(time.Millisecond))
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "%-8s %-8s %4s |", "Total", "-", "-")
	for kind := 0; kind < 4; kind++ {
		fmt.Fprintf(&b, " al=%-4d bugs=%-4d %-7s |", totalAlerts[kind], totalBugs[kind], "")
	}
	b.WriteString("\n")
	return b.String()
}

// falsePositiveRates computes Table 6: per engine, FP / alerts.
func falsePositiveRates(totalAlerts, totalBugs [4]int) [4]float64 {
	var out [4]float64
	for k := 0; k < 4; k++ {
		if totalAlerts[k] > 0 {
			out[k] = float64(totalAlerts[k]-totalBugs[k]) / float64(totalAlerts[k])
		}
	}
	return out
}
