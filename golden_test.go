package fits

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"math"
	"testing"

	"fits/internal/infer"
	"fits/internal/loader"
	"fits/internal/score"
	"fits/internal/synth"
)

// rankingsGolden is the SHA-256 TestRankingsGolden pins. Update it only for
// a change that is meant to move rankings, and say so in the change.
const rankingsGolden = "e1f3075b342b7e5ec896f8e11c81169dfe6f81a77cfaad04f483fd4f80237c19"

// TestRankingsGolden guards refactors and speed work that must not move a
// single output byte: one digest over every dataset image's BFV ranking,
// plus the RQ3 baseline representations' rankings on a few images. The
// dataset shares one cache, so memoised artifacts cross image boundaries
// just as they do in a long-running service.
func TestRankingsGolden(t *testing.T) {
	h := sha256.New()
	cache := NewCache(0, 0)
	for i, spec := range synth.Dataset() {
		s, err := synth.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Analyze(s.Packed, Options{Metric: score.Cosine, Cache: cache})
		if errors.Is(err, loader.ErrNoTargets) {
			fmt.Fprintf(h, "image %d: no targets\n", i)
			continue
		}
		if err != nil {
			t.Fatalf("image %d: %v", i, err)
		}
		fmt.Fprintf(h, "image %d\n", i)
		for _, tgt := range res.Targets {
			fmt.Fprintf(h, "%s %s %d\n", tgt.Path, tgt.Binary, tgt.NumFuncs)
			for _, c := range tgt.Candidates {
				hashCandidate(h, c.Entry, c.Score)
			}
		}
	}
	for _, i := range []int{0, 42} {
		s, err := synth.Generate(synth.Dataset()[i])
		if err != nil {
			t.Fatal(err)
		}
		res, err := loader.Load(s.Packed, loader.Options{})
		if err != nil {
			t.Fatalf("image %d: %v", i, err)
		}
		for _, rep := range []infer.Representation{infer.RepAugmentedCFG, infer.RepAttributedCFG} {
			cfgn := infer.DefaultConfig()
			cfgn.Representation = rep
			for _, r := range infer.InferAll(res, cfgn) {
				fmt.Fprintf(h, "image %d %s %s %d/%d/%d\n", i, rep, r.Path, r.NumFuncs, r.NumCandidates, r.NumAnchors)
				for _, e := range r.Ranked {
					hashCandidate(h, e.Entry, e.Score)
				}
			}
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != rankingsGolden {
		t.Errorf("rankings digest = %s, want %s", got, rankingsGolden)
	}
}

func hashCandidate(h hash.Hash, entry uint32, s float64) {
	var buf [12]byte
	binary.LittleEndian.PutUint32(buf[:4], entry)
	binary.LittleEndian.PutUint64(buf[4:], math.Float64bits(s))
	h.Write(buf[:])
}
