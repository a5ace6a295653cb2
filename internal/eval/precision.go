package eval

import (
	"context"
	"fmt"
	"strings"

	"fits/internal/loader"
	"fits/internal/modelcache"
	"fits/internal/scan"
	"fits/internal/synth"
	"fits/internal/taint"
)

// precision.go scores the two precision passes of the STA engine — the
// bounded points-to analysis (internal/alias) and the path-feasibility
// post-pass (internal/pathcheck) — against the baseline engine with both
// passes disabled, over ground-truth manifests of all three synth families:
// single-binary samples, version chains, and multi-binary firmware. Each
// family plants SafeInfeasible handlers (a false positive only feasibility
// checking removes) and VulnAliased handlers (a true flow only the alias
// pass connects), so the before/after table is the subsystem's acceptance
// claim: strictly better precision at no loss of recall.
//
// Scoring conventions (deliberate, relied on by the CI gate):
//   - Precision is 1.0 when TP+FP == 0: an engine that reports nothing on a
//     corpus has made no false claims. This differs from the 0-on-empty
//     guard of runXScore, where an all-miss mode should not score 100%.
//   - Recall is 1.0 when the manifest plants no vulnerable flow (nothing to
//     miss), covering only-infeasible manifests.

// PrecisionModeBaseline and PrecisionModeFull name the two engine
// configurations of the comparison.
const (
	PrecisionModeBaseline = "baseline"
	PrecisionModeFull     = "alias+pathcheck"
)

// ScanPrecisionRow is one (family, engine mode) cell of the precision table.
type ScanPrecisionRow struct {
	Family string
	Mode   string
	// Alerts counts reported alerts; Refuted counts alerts the feasibility
	// pass removed (always 0 in baseline mode).
	Alerts  int
	Refuted int
	// TP / FP / FN match alerts against the manifests' vulnerable handlers
	// by (binary, sink-function, dedup by flow).
	TP, FP, FN int
	Precision  float64
	Recall     float64
}

// precisionExtras is the planted mix every precision-eval sample adds on
// top of its profile: two infeasible-guard false positives and one
// aliased-flow true positive per binary that carries them.
func precisionExtras() map[synth.HandlerCategory]int {
	return map[synth.HandlerCategory]int{
		synth.SafeInfeasible: 2,
		synth.VulnAliased:    1,
	}
}

// precisionSamples generates the three families. Seeds are fixed so the
// table is deterministic; the specs are separate from Dataset() and
// ChainDataset() so the standard corpora stay byte-identical.
func precisionSamples() (map[string][]*synth.Sample, []string, error) {
	extras := precisionExtras()
	families := map[string][]*synth.Sample{}
	order := []string{"single-binary", "version-chain", "multibin"}

	// Single-binary family: one sample per single-binary vendor profile.
	singles := []synth.SampleSpec{
		{Vendor: "Tenda", Series: "AC", Product: "AC-PR1", Version: "V1.0.1", Seed: 9101, ExtraHandlers: extras},
		{Vendor: "D-Link", Series: "DIR", Product: "DIR-PR2", Version: "V1.0.2", Seed: 9102, ExtraHandlers: extras},
		{Vendor: "TP-Link", Series: "WR", Product: "WR-PR3", Version: "V1.0.3", Seed: 9103, ExtraHandlers: extras},
	}
	for _, spec := range singles {
		s, err := synth.Generate(spec)
		if err != nil {
			return nil, nil, fmt.Errorf("precision: %s: %w", spec.Product, err)
		}
		families["single-binary"] = append(families["single-binary"], s)
	}

	// Version-chain family: a patch chain whose every version carries the
	// planted cases.
	chain, err := synth.GenerateChain(synth.ChainSpec{
		Seed:          9201,
		Steps:         []synth.ChainStepKind{synth.StepPatchBug, synth.StepAddFeature},
		ExtraHandlers: extras,
	})
	if err != nil {
		return nil, nil, fmt.Errorf("precision: chain: %w", err)
	}
	families["version-chain"] = chain.Versions

	// Multi-binary family: NETGEAR-profile firmware ships httpd plus the
	// netcgi helper, so each sample's manifest spans two network binaries.
	multis := []synth.SampleSpec{
		{Vendor: "NETGEAR", Series: "R", Product: "R-PR4", Version: "V1.0.4", Seed: 9104, ExtraHandlers: extras},
		{Vendor: "NETGEAR", Series: "XR", Product: "XR-PR5", Version: "V1.0.5", Seed: 9105, ExtraHandlers: extras},
	}
	for _, spec := range multis {
		s, err := synth.Generate(spec)
		if err != nil {
			return nil, nil, fmt.Errorf("precision: %s: %w", spec.Product, err)
		}
		families["multibin"] = append(families["multibin"], s)
	}
	return families, order, nil
}

// scorePrecision scans every sample of one family in one engine mode through
// scan.Run and accumulates the row; Refuted is read from the memoised full
// alert list. The ITS set is seeded from the manifest (the paper's
// verified-candidate workflow, as in RunBugEngine), so the comparison
// isolates the precision passes from inference quality.
func scorePrecision(ctx context.Context, cache *modelcache.Cache, family, mode string, samples []*synth.Sample, disablePasses bool) (ScanPrecisionRow, error) {
	row := ScanPrecisionRow{Family: family, Mode: mode}
	type coord struct {
		version string
		binary  string
		entry   uint32
	}
	found := map[coord]bool{}
	vulnTotal := 0
	for _, s := range samples {
		res, err := loader.LoadContext(ctx, s.Packed, loader.Options{Cache: cache})
		if err != nil {
			return row, fmt.Errorf("precision: load %s %s: %w", s.Manifest.Product, s.Manifest.Version, err)
		}
		for _, h := range s.Manifest.Handlers {
			if h.Category.Vulnerable() {
				vulnTotal++
			}
		}
		for _, t := range res.Targets {
			var its []uint32
			for _, it := range s.Manifest.ITSIn(t.Bin.Name) {
				its = append(its, it.Entry)
			}
			alerts, err := scan.Run(ctx, t, scan.Static, taint.Options{
				UseCTS: true, ITS: its, StringFilter: true,
				NoAlias: disablePasses, NoPathcheck: disablePasses,
			}, cache, nil)
			if err != nil {
				return row, err
			}
			for _, a := range alerts {
				if a.Refuted != "" {
					row.Refuted++
				}
				if !a.Reported() {
					continue
				}
				row.Alerts++
				h, ok := s.Manifest.HandlerBySink(t.Bin.Name, a.Func)
				if ok && h.Category.Vulnerable() {
					found[coord{s.Manifest.Version, t.Bin.Name, h.SinkEntry}] = true
				} else {
					row.FP++
				}
			}
		}
	}
	row.TP = len(found)
	row.FN = vulnTotal - row.TP
	// 1.0-on-empty conventions: see the package comment above.
	row.Precision = 1.0
	if row.TP+row.FP > 0 {
		row.Precision = float64(row.TP) / float64(row.TP+row.FP)
	}
	row.Recall = 1.0
	if vulnTotal > 0 {
		row.Recall = float64(row.TP) / float64(vulnTotal)
	}
	return row, nil
}

// RunPrecision produces the before/after precision table: per family, one
// baseline row (both passes disabled — the pre-overhaul engine) and one
// full row (alias + pathcheck on, the default configuration). Models and
// alert lists are memoised in cache; nil computes everything.
func RunPrecision(ctx context.Context, cache *modelcache.Cache) ([]ScanPrecisionRow, error) {
	families, order, err := precisionSamples()
	if err != nil {
		return nil, err
	}
	var rows []ScanPrecisionRow
	for _, fam := range order {
		base, err := scorePrecision(ctx, cache, fam, PrecisionModeBaseline, families[fam], true)
		if err != nil {
			return nil, err
		}
		full, err := scorePrecision(ctx, cache, fam, PrecisionModeFull, families[fam], false)
		if err != nil {
			return nil, err
		}
		rows = append(rows, base, full)
	}
	return rows, nil
}

// CheckPrecision enforces the CI gate on a RunPrecision table: per family,
// the full configuration must score strictly better precision than the
// baseline without giving up recall.
func CheckPrecision(rows []ScanPrecisionRow) error {
	byFamily := map[string][2]*ScanPrecisionRow{}
	var order []string
	for i := range rows {
		r := &rows[i]
		pair, ok := byFamily[r.Family]
		if !ok {
			order = append(order, r.Family)
		}
		switch r.Mode {
		case PrecisionModeBaseline:
			pair[0] = r
		case PrecisionModeFull:
			pair[1] = r
		}
		byFamily[r.Family] = pair
	}
	var problems []string
	for _, fam := range order {
		pair := byFamily[fam]
		base, full := pair[0], pair[1]
		if base == nil || full == nil {
			problems = append(problems, fmt.Sprintf("%s: incomplete row pair", fam))
			continue
		}
		if full.Precision <= base.Precision {
			problems = append(problems, fmt.Sprintf("%s: precision %.3f not strictly better than baseline %.3f",
				fam, full.Precision, base.Precision))
		}
		if full.Recall < base.Recall {
			problems = append(problems, fmt.Sprintf("%s: recall %.3f below baseline %.3f",
				fam, full.Recall, base.Recall))
		}
	}
	if len(problems) > 0 {
		return fmt.Errorf("precision gate failed:\n  %s", strings.Join(problems, "\n  "))
	}
	return nil
}

// FormatPrecision renders the table.
func FormatPrecision(rows []ScanPrecisionRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-14s %-16s %6s %7s %4s %4s %4s %10s %7s\n",
		"Family", "Mode", "Alerts", "Refuted", "TP", "FP", "FN", "Precision", "Recall")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14s %-16s %6d %7d %4d %4d %4d %9.1f%% %6.1f%%\n",
			r.Family, r.Mode, r.Alerts, r.Refuted, r.TP, r.FP, r.FN,
			100*r.Precision, 100*r.Recall)
	}
	return b.String()
}
