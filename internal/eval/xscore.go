package eval

import (
	"context"
	"fmt"
	"strings"

	"fits/internal/corpustaint"
	"fits/internal/modelcache"
	"fits/internal/synth"
)

// xscore.go scores the cross-binary corpus modes against the planted
// ground truth of a synth.XCorpus: classical seeding (CTS), single-binary
// inferred sources (CTS+ITS), and the front-end-aware cross-binary
// fixpoint. The comparison is the subsystem's acceptance claim — the
// cross-binary flows are invisible to any per-binary seeding because the
// back-end readers have no classical sources at all.

// XScoreRow is one corpus mode's detection score.
type XScoreRow struct {
	Mode string
	// TP / FP / FN score alerts by synth's manifest matcher: an alert is
	// a true positive when it lands on a vulnerable flow's (binary,
	// function, sink) coordinate.
	TP, FP, FN int
	Precision  float64
	Recall     float64
	// CrossTP / CrossTotal restrict the count to the vulnerable
	// cross-binary flows, the rows single-binary modes provably miss.
	CrossTP    int
	CrossTotal int
}

// runXScore scans the corpus once per mode and scores each report against
// the manifest. The modes share cache's models and scans; nil computes.
func runXScore(ctx context.Context, cache *modelcache.Cache, x *synth.XCorpus) ([]XScoreRow, error) {
	rows := make([]XScoreRow, 0, 3)
	for _, mode := range []corpustaint.Mode{corpustaint.ModeCTS, corpustaint.ModeITS, corpustaint.ModeCross} {
		rep, err := corpustaint.Run(ctx, x.Files, corpustaint.Options{Mode: mode, Cache: cache})
		if err != nil {
			return nil, err
		}
		rows = append(rows, scoreReport(string(mode), rep, x.Manifest))
	}
	return rows, nil
}

// scoreReport matches one report's alerts against the planted flows.
func scoreReport(mode string, rep *corpustaint.Report, m synth.XManifest) XScoreRow {
	row := XScoreRow{Mode: mode}
	var tally synth.Tally
	for _, a := range rep.Alerts {
		tally.Add(m.Match(a.Binary, a.Func, a.Sink))
	}
	row.TP, row.FP = len(tally.Found), tally.FP
	for _, f := range m.Flows {
		if !f.Vulnerable {
			continue
		}
		hit := tally.Found[synth.Flow{Binary: f.SinkBinary, SinkEntry: f.SinkEntry}]
		if !hit {
			row.FN++
		}
		if f.CrossBinary {
			row.CrossTotal++
			if hit {
				row.CrossTP++
			}
		}
	}
	if row.TP+row.FP > 0 {
		row.Precision = float64(row.TP) / float64(row.TP+row.FP)
	}
	if row.TP+row.FN > 0 {
		row.Recall = float64(row.TP) / float64(row.TP+row.FN)
	}
	return row
}

// formatXScore renders the mode comparison as the evaluation table.
func formatXScore(rows []XScoreRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %4s %4s %4s %10s %7s %12s\n",
		"Mode", "TP", "FP", "FN", "Precision", "Recall", "Cross-flows")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-6s %4d %4d %4d %9.0f%% %6.0f%% %8d/%d\n",
			r.Mode, r.TP, r.FP, r.FN, 100*r.Precision, 100*r.Recall, r.CrossTP, r.CrossTotal)
	}
	return b.String()
}
