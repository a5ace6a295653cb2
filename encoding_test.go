package fits

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"fits/internal/isa"
	"fits/internal/loader"
	"fits/internal/score"
	"fits/internal/synth"
)

// TestCrossEncodingInvariance builds every dataset sample in each of the
// three encodings and requires one outcome from all three: the same
// rankings, scores included, and the same alerts under both engines. The
// encodings differ only in bytes and text base, so every address is
// compared as an offset from the base, which names a function across the
// three builds.
func TestCrossEncodingInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("analyzes the dataset three times")
	}
	cache := NewCache(0, 0)
	archs := []isa.Arch{isa.ArchARM, isa.ArchAARCH, isa.ArchMIPS}
	for i, spec := range synth.Dataset() {
		var outs []string
		for _, arch := range archs {
			spec.Arch = arch
			outs = append(outs, encodingOutcome(t, i, spec, cache))
		}
		for k := 1; k < len(archs); k++ {
			if outs[k] != outs[0] {
				t.Errorf("image %d (%s %s): %s and %s builds differ:\n%s", i, spec.Vendor, spec.Product,
					archs[0], archs[k], firstDiff(outs[0], outs[k]))
			}
		}
	}
}

// encodingOutcome renders one build's rankings and both engines' alerts,
// every address as an offset from the encoding's text base.
func encodingOutcome(t *testing.T, i int, spec synth.SampleSpec, cache *Cache) string {
	t.Helper()
	s, err := synth.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Analyze(s.Packed, Options{Metric: score.Cosine, Cache: cache})
	if errors.Is(err, loader.ErrNoTargets) {
		return "no targets"
	}
	if err != nil {
		t.Fatalf("image %d %s: %v", i, spec.Arch, err)
	}
	base := spec.Arch.Base()
	var b strings.Builder
	for _, tgt := range res.Targets {
		fmt.Fprintf(&b, "%s %s %d\n", tgt.Path, tgt.Binary, tgt.NumFuncs)
		for _, c := range tgt.Candidates {
			fmt.Fprintf(&b, "  %#x %016x\n", c.Entry-base, math.Float64bits(c.Score))
		}
		var its []uint32
		for _, c := range tgt.TopCandidates(3) {
			its = append(its, c.Entry)
		}
		for _, engine := range []Engine{EngineStatic, EngineSymbolic} {
			alerts, err := tgt.Scan(ScanOptions{Engine: engine, ITS: its, StringFilter: true})
			if err != nil {
				t.Fatalf("image %d %s %s: %v", i, spec.Arch, tgt.Path, err)
			}
			lines := make([]string, len(alerts))
			for j, a := range alerts {
				lines[j] = fmt.Sprintf("  %s %#x %#x %s %s %s %v", a.Binary, a.Site-base, a.Func-base, a.Sink, a.Kind, a.Source, a.Degraded)
			}
			fmt.Fprintf(&b, "engine %d: %d alerts\n%s\n", engine, len(alerts), strings.Join(lines, "\n"))
		}
	}
	return b.String()
}

// firstDiff returns the first line at which two renderings differ.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for j := range min(len(al), len(bl)) {
		if al[j] != bl[j] {
			return fmt.Sprintf("line %d: %q vs %q", j+1, al[j], bl[j])
		}
	}
	return fmt.Sprintf("%d lines vs %d", len(al), len(bl))
}
