package fits

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"math"
	"testing"

	"fits/internal/evolve"
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

// alertsGolden is the SHA-256 TestAlertsGolden pins. Update it only for a
// change that is meant to move alerts, and say so in the change.
const alertsGolden = "9431b9beb77019d5ccb5599a42da6fc310d8475a3f7813858599b2df72fa3de9"

// TestAlertsGolden is TestRankingsGolden for the taint engines' output:
// one digest over every dataset target's static-engine alerts under three
// scan configurations (classical sources only; top-3 inferred sources with
// the string filter; the same with both precision passes off), plus the
// serialized XScan report of several cross-channel corpora in each mode.
// Every alert field is hashed, Degraded included.
func TestAlertsGolden(t *testing.T) {
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
		for _, tgt := range res.Targets {
			var its []uint32
			for _, c := range tgt.TopCandidates(3) {
				its = append(its, c.Entry)
			}
			for j, opts := range []ScanOptions{
				{Engine: EngineStatic},
				{Engine: EngineStatic, ITS: its, StringFilter: true},
				{Engine: EngineStatic, ITS: its, StringFilter: true, NoAlias: true, NoPathcheck: true},
			} {
				alerts, err := tgt.Scan(opts)
				if err != nil {
					t.Fatalf("image %d %s: %v", i, tgt.Path, err)
				}
				fmt.Fprintf(h, "image %d %s config %d: %d alerts\n", i, tgt.Path, j, len(alerts))
				for _, a := range alerts {
					fmt.Fprintf(h, "%s %#x %#x %s %s %s %v\n", a.Binary, a.Site, a.Func, a.Sink, a.Kind, a.Source, a.Degraded)
				}
			}
		}
	}
	for seed := int64(1); seed <= 6; seed++ {
		x, err := synth.GenerateXCorpus(seed)
		if err != nil {
			t.Fatal(err)
		}
		files := make([]CorpusFile, len(x.Files))
		for i, f := range x.Files {
			files[i] = CorpusFile{Path: f.Path, Data: f.Data}
		}
		for _, mode := range []string{"cts", "its", "cross"} {
			rep, err := XScan(files, XScanOptions{Mode: mode, StringFilter: true})
			if err != nil {
				t.Fatalf("xcorpus %d %s: %v", seed, mode, err)
			}
			out, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(h, "xcorpus %d %s\n", seed, mode)
			h.Write(out)
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != alertsGolden {
		t.Errorf("alerts digest = %s, want %s", got, alertsGolden)
	}
}

func hashCandidate(h hash.Hash, entry uint32, s float64) {
	var buf [12]byte
	binary.LittleEndian.PutUint32(buf[:4], entry)
	binary.LittleEndian.PutUint64(buf[4:], math.Float64bits(s))
	h.Write(buf[:])
}

// diffReportGolden is the SHA-256 TestDiffReportGolden pins. Update it only
// for a change that is meant to move diff reports or their alerts, and say
// so in the change.
const diffReportGolden = "190458d638dd591700811a2dafd507286ba547b7d8573511cecaa890e3a8e345"

// TestDiffReportGolden is TestRankingsGolden for version diffs: one digest
// over the JSON of every synth.ChainDataset() step's DiffReport, OldAlerts
// and NewAlerts. Each chain shares one cache across its steps, so every
// step's old version is served from the cache and its new version is built,
// as in a long diff session.
func TestDiffReportGolden(t *testing.T) {
	h := sha256.New()
	for _, spec := range synth.ChainDataset() {
		c := chainFor(t, spec)
		opts := DefaultDiffOptions()
		opts.Cache = NewCache(0, 0)
		for i := 0; i+1 < len(c.Versions); i++ {
			d, err := Diff(c.Versions[i].Packed, c.Versions[i+1].Packed, opts)
			if err != nil {
				t.Fatalf("chain %d step %d: %v", spec.Seed, i, err)
			}
			out, err := json.Marshal(struct {
				Report    *evolve.DiffReport
				OldAlerts [][]Alert
				NewAlerts [][]Alert
			}{d.Report, d.OldAlerts, d.NewAlerts})
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(h, "chain %d step %d\n", spec.Seed, i)
			h.Write(out)
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != diffReportGolden {
		t.Errorf("diff report digest = %s, want %s", got, diffReportGolden)
	}
}
