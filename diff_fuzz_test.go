package fits

// Fuzz coverage for the evolution diff: DiffContext over a fixed old
// version and an arbitrary (usually mangled) new image must never panic.
// When the mangled image fails to load, Diff reports the error; when it
// still parses, the differential oracle applies in full — the new side,
// analyzed behind a cache the old side warmed, must equal an uncached cold
// run over the same bytes, and the reuse accounting evolve derives from its
// pairing must stay coherent. Seeds are real chain versions plus
// truncations of them.

import (
	"context"
	"reflect"
	"testing"

	"fits/internal/synth"
)

func FuzzDiff(f *testing.F) {
	c, err := synth.GenerateChain(synth.ChainDataset()[0])
	if err != nil {
		f.Fatalf("synth: %v", err)
	}
	old := c.Versions[0].Packed
	f.Add(c.Versions[1].Packed)
	f.Add(old)
	if len(old) > 512 {
		f.Add(old[:512]) // header plus a ragged tail
	}
	f.Add([]byte{})
	f.Add([]byte("FWIMG"))
	// One cache across all executions keeps the fixed old side warm — the
	// harness has already proven results are cache-state independent, and
	// without it every exec pays a full cold analysis of the old image.
	cache := NewCache(0, 0)
	f.Fuzz(func(t *testing.T, data []byte) {
		opts := DefaultDiffOptions()
		opts.Parallelism = 1
		opts.Cache = cache
		d, err := DiffContext(context.Background(), old, data, opts)
		if err != nil {
			// The mangled image must be the reason: a cold analysis of the
			// same bytes has to fail too.
			plain := opts.Options
			plain.Cache = nil
			if _, cerr := AnalyzeContext(context.Background(), data, plain); cerr == nil {
				t.Errorf("diff failed (%v) but cold analysis of the new image succeeded", err)
			}
			return
		}
		r := d.Report
		if r == nil {
			t.Fatal("successful diff without a report")
		}
		if r.ReuseRatio < 0 || r.ReuseRatio > 1 || r.ReusedFuncs > r.TotalFuncs {
			t.Fatalf("incoherent reuse accounting: %d/%d = %v", r.ReusedFuncs, r.TotalFuncs, r.ReuseRatio)
		}
		// The correctness contract holds for every input that loads: reuse
		// degrades (to zero on unrelated images), never the results.
		wantNorm, wantAlerts := coldTruth(t, data, opts)
		if got := normalize(d.New); !reflect.DeepEqual(got, wantNorm) {
			t.Errorf("incremental analysis differs from cold run over mutated image")
		}
		if !reflect.DeepEqual(d.NewAlerts, wantAlerts) {
			t.Errorf("incremental alerts differ from cold run over mutated image")
		}
	})
}
