package server

import (
	"context"
	"crypto/sha256"
	"fmt"
	"testing"

	"fits"
	"fits/internal/optbuild"
	"fits/internal/synth"
)

// resultJSONGolden is the SHA-256 TestResultJSONGolden pins. Update it only
// for a change that is meant to move fitsd result bytes, and say so in the
// change: stored results are served verbatim, so a move is a wire change.
const resultJSONGolden = "0ae2706d4bbb4f45ffba63a2a9be63167bbbc2c493b0fa47f637ad482e6dc744"

// TestResultJSONGolden pins the ResultJSON of each job kind's pipeline: a
// spread of dataset images analyzed without a scan, with a scan and with a
// scan seeded by the inferred sources; every ChainDataset step diffed, plus
// one self-diff per chain (whose churn lists are all empty); and three
// cross-channel corpora in each seeding mode. One cache serves every job,
// as in a long-running daemon.
func TestResultJSONGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full pipeline; skipped in -short")
	}
	ctx := context.Background()
	env := RunEnv{Cache: fits.NewCache(0, 0)}
	h := sha256.New()
	run := func(label, kind string, spec optbuild.Spec, in ...[]byte) {
		fmt.Fprintf(h, "%s\n", label)
		out, err := DefaultRunner(ctx, kind, in, spec, env)
		if err != nil {
			fmt.Fprintf(h, "error: %v\n", err)
			return
		}
		h.Write(out.ResultJSON)
	}

	specs := []optbuild.Spec{{}, {Scan: true}, {Scan: true, SeedITS: true}}
	ds := synth.Dataset()
	for i := 0; i < len(ds); i += 4 {
		s, err := synth.Generate(ds[i])
		if err != nil {
			t.Fatal(err)
		}
		for j, spec := range specs {
			run(fmt.Sprintf("image %d spec %d", i, j), "", spec, s.Packed)
		}
	}
	for _, cs := range synth.ChainDataset() {
		c, err := synth.GenerateChain(cs)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i+1 < len(c.Versions); i++ {
			run(fmt.Sprintf("chain %d step %d", cs.Seed, i), KindDiff, optbuild.Spec{},
				c.Versions[i].Packed, c.Versions[i+1].Packed)
		}
		v := c.Versions[0].Packed
		run(fmt.Sprintf("chain %d self", cs.Seed), KindDiff, optbuild.Spec{}, v, v)
	}
	for seed := int64(1); seed <= 3; seed++ {
		x, err := synth.GenerateXCorpus(seed)
		if err != nil {
			t.Fatal(err)
		}
		packed := fits.PackCorpus(x.Files)
		for _, mode := range []string{"cts", "its", "cross"} {
			run(fmt.Sprintf("corpus %d %s", seed, mode), KindCorpus, optbuild.Spec{XMode: mode}, packed)
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != resultJSONGolden {
		t.Errorf("result JSON digest = %s, want %s", got, resultJSONGolden)
	}
}
