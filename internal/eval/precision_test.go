package eval

import (
	"context"
	"strings"
	"testing"

	"fits/internal/synth"
)

// TestScorePrecisionZeroAlertCorpus exercises the divide-by-zero edge: a
// corpus on which the engine reports nothing must score the documented
// 1.0-precision-on-empty convention, not 0 or NaN.
func TestScorePrecisionZeroAlertCorpus(t *testing.T) {
	// An offset-indexed failure-mode sample has no keyed fetch functions,
	// so ITS seeding is empty and almost nothing alerts; with no handlers
	// of any alerting kind the row can be fully empty. Use a spec whose
	// profile floor guarantees vulnerable handlers but strip the manifest
	// to simulate an empty ground truth instead: score over no samples.
	row, err := scorePrecision(context.Background(), nil, "empty", PrecisionModeFull, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if row.TP != 0 || row.FP != 0 || row.FN != 0 || row.Alerts != 0 {
		t.Fatalf("empty corpus produced counts: %+v", row)
	}
	if row.Precision != 1.0 {
		t.Errorf("precision on empty = %v, want the documented 1.0 convention", row.Precision)
	}
	if row.Recall != 1.0 {
		t.Errorf("recall with no planted flows = %v, want the documented 1.0 convention", row.Recall)
	}
}

// TestScorePrecisionOnlyInfeasible scores a manifest whose only planted
// handlers are infeasible-guard false positives: the baseline alerts on
// them (precision 0 over the planted set), the full configuration refutes
// every one, and recall stays at the 1.0-on-no-vulnerable-flows convention
// in both modes.
func TestScorePrecisionOnlyInfeasible(t *testing.T) {
	s, err := synth.Generate(synth.SampleSpec{
		Vendor: "TP-Link", Series: "WR", Product: "WR-INF", Version: "V1.0.9", Seed: 9301,
		ExtraHandlers: map[synth.HandlerCategory]int{synth.SafeInfeasible: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Restrict the manifest view to the planted infeasible handlers so the
	// sample's profile-level mix cannot contribute vulnerable flows.
	var kept []synth.HandlerTruth
	for _, h := range s.Manifest.Handlers {
		if h.Category == synth.SafeInfeasible {
			kept = append(kept, h)
		}
	}
	if len(kept) != 3 {
		t.Fatalf("planted %d SafeInfeasible handlers, want 3", len(kept))
	}
	for _, h := range kept {
		if h.Category.Vulnerable() {
			t.Fatalf("SafeInfeasible classified vulnerable")
		}
	}

	base, err := scorePrecision(context.Background(), testCache, "only-infeasible", PrecisionModeBaseline, []*synth.Sample{s}, true)
	if err != nil {
		t.Fatal(err)
	}
	full, err := scorePrecision(context.Background(), testCache, "only-infeasible", PrecisionModeFull, []*synth.Sample{s}, false)
	if err != nil {
		t.Fatal(err)
	}
	if full.Refuted == 0 {
		t.Error("full mode refuted no alerts on an infeasible-only plant")
	}
	if base.Refuted != 0 {
		t.Errorf("baseline mode refuted %d alerts; the pass should be off", base.Refuted)
	}
	if full.FP >= base.FP {
		t.Errorf("full-mode FP %d not below baseline %d", full.FP, base.FP)
	}
	if full.Recall < base.Recall {
		t.Errorf("full-mode recall %v below baseline %v", full.Recall, base.Recall)
	}
}

// TestCheckPrecisionGate verifies both directions of the CI gate.
func TestCheckPrecisionGate(t *testing.T) {
	good := []ScanPrecisionRow{
		{Family: "f", Mode: PrecisionModeBaseline, Precision: 0.5, Recall: 0.8},
		{Family: "f", Mode: PrecisionModeFull, Precision: 0.7, Recall: 0.8},
	}
	if err := CheckPrecision(good); err != nil {
		t.Errorf("gate rejected an improvement: %v", err)
	}
	flat := []ScanPrecisionRow{
		{Family: "f", Mode: PrecisionModeBaseline, Precision: 0.5, Recall: 0.8},
		{Family: "f", Mode: PrecisionModeFull, Precision: 0.5, Recall: 0.8},
	}
	if err := CheckPrecision(flat); err == nil {
		t.Error("gate accepted equal precision; must require strictly better")
	}
	lostRecall := []ScanPrecisionRow{
		{Family: "f", Mode: PrecisionModeBaseline, Precision: 0.5, Recall: 0.8},
		{Family: "f", Mode: PrecisionModeFull, Precision: 0.9, Recall: 0.7},
	}
	if err := CheckPrecision(lostRecall); err == nil {
		t.Error("gate accepted a recall regression")
	}
	missing := []ScanPrecisionRow{
		{Family: "f", Mode: PrecisionModeBaseline, Precision: 0.5, Recall: 0.8},
	}
	if err := CheckPrecision(missing); err == nil {
		t.Error("gate accepted an incomplete row pair")
	}
}

// TestRunPrecisionTable is the end-to-end acceptance check: both passes on
// by default must beat the baseline on every family, and the table must
// render every family twice.
func TestRunPrecisionTable(t *testing.T) {
	if testing.Short() {
		t.Skip("generates and scans three sample families")
	}
	rows, err := RunPrecision(context.Background(), testCache)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("%d rows, want 6 (3 families x 2 modes)", len(rows))
	}
	if err := CheckPrecision(rows); err != nil {
		t.Errorf("precision gate failed: %v", err)
	}
	out := FormatPrecision(rows)
	for _, fam := range []string{"single-binary", "version-chain", "multibin"} {
		if strings.Count(out, fam) != 2 {
			t.Errorf("family %s does not appear exactly twice in:\n%s", fam, out)
		}
	}
}
