package eval

import (
	"fmt"
	"strings"
	"time"

	"fits/internal/infer"
	"fits/internal/karonte"
	"fits/internal/loader"
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

// BugResult is one engine's outcome on one firmware sample.
type BugResult struct {
	Manifest synth.Manifest
	Engine   EngineKind
	Alerts   int
	Bugs     int // true positives (distinct vulnerable flows alerted)
	Filtered int
	Elapsed  time.Duration
	// FoundFlows lists the sink-function entries of true-positive alerts,
	// for cross-engine subset checks.
	FoundFlows map[uint32]bool
}

// inferredITS runs the inference pipeline and returns the verified top-3
// entries usable as taint sources — the paper's workflow: infer, manually
// verify top candidates, then feed confirmed ITSs to the engines. The
// manifest stands in for manual verification.
func inferredITS(s *synth.Sample, t *loader.Target) []uint32 {
	ranking := infer.InferTarget(t, cached(infer.DefaultConfig()))
	truth := map[uint32]bool{}
	for _, its := range s.Manifest.ITS {
		if its.Binary == t.Bin.Name {
			truth[its.Entry] = true
		}
	}
	var out []uint32
	for _, r := range ranking.Top(3) {
		if truth[r.Entry] {
			out = append(out, r.Entry)
		}
	}
	return out
}

// RunBugEngine applies one engine configuration to one sample.
func RunBugEngine(s *synth.Sample, kind EngineKind) BugResult {
	start := time.Now()
	out := BugResult{Manifest: s.Manifest, Engine: kind, FoundFlows: map[uint32]bool{}}
	res, err := loadCached(s.Packed, nil)
	if err != nil {
		out.Elapsed = time.Since(start)
		return out
	}
	for _, t := range res.Targets {
		var its []uint32
		if kind.WithITS() {
			its = inferredITS(s, t)
		}
		var alerts []taint.Alert
		filtered := 0
		switch kind {
		case EngineSTA, EngineSTAITS:
			e := taint.New(t.Bin, t.Model, taint.Options{
				UseCTS: true, ITS: its, StringFilter: true,
			})
			alerts = e.Run()
			filtered = len(e.AllAlerts()) - len(alerts)
		default:
			e := karonte.New(t.Bin, t.Model, karonte.Options{ITS: its})
			alerts = e.Run()
		}
		out.Filtered += filtered
		out.Alerts += len(alerts)
		for _, a := range alerts {
			if h, ok := s.Manifest.HandlerBySink(t.Bin.Name, a.Func); ok && h.Category.Vulnerable() {
				if !out.FoundFlows[h.SinkEntry] {
					out.FoundFlows[h.SinkEntry] = true
					out.Bugs++
				}
			}
		}
	}
	out.Elapsed = time.Since(start)
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

// Table5 runs all four engines over the corpus and aggregates per
// dataset/vendor rows plus totals.
func Table5(samples []*synth.Sample) ([]BugRow, [4]int, [4]int) {
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
		for kind := EngineKaronte; kind <= EngineSTAITS; kind++ {
			r := RunBugEngine(s, kind)
			row.Alerts[kind] += r.Alerts
			row.Bugs[kind] += r.Bugs
			row.AvgTime[kind] += r.Elapsed
			totalAlerts[kind] += r.Alerts
			totalBugs[kind] += r.Bugs
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

// FormatTable5 renders rows in the paper's layout.
func FormatTable5(rows []BugRow, totalAlerts, totalBugs [4]int) string {
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

// FalsePositiveRates computes Table 6: per engine, FP / alerts.
func FalsePositiveRates(totalAlerts, totalBugs [4]int) [4]float64 {
	var out [4]float64
	for k := 0; k < 4; k++ {
		if totalAlerts[k] > 0 {
			out[k] = float64(totalAlerts[k]-totalBugs[k]) / float64(totalAlerts[k])
		}
	}
	return out
}
