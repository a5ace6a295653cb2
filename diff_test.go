package fits

// Tests for the evolution diff pipeline. Both sides of a Diff are ordinary
// analyses that share a cache, so the differential harness asserts the
// correctness contract — a Diff's new-side results are byte-identical to an
// uncached cold analysis of the new image at every parallelism, cache state
// and chain — and the churn tests score DiffReport, which evolve builds by
// pairing the two sides, against the chains' ground-truth evolution
// manifests.

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"fits/internal/evolve"
	"fits/internal/synth"
)

var (
	chainMu    sync.Mutex
	chainMemo  = map[int64]*synth.Chain{}
	chainMemoE = map[int64]error{}
)

func chainFor(t *testing.T, spec synth.ChainSpec) *synth.Chain {
	t.Helper()
	chainMu.Lock()
	defer chainMu.Unlock()
	if c, ok := chainMemo[spec.Seed]; ok {
		return c
	}
	if err := chainMemoE[spec.Seed]; err != nil {
		t.Fatal(err)
	}
	c, err := synth.GenerateChain(spec)
	if err != nil {
		chainMemoE[spec.Seed] = err
		t.Fatal(err)
	}
	chainMemo[spec.Seed] = c
	return c
}

// coldTruth analyzes an image from scratch — serial, uncached — and scans it
// exactly as Diff does, producing the reference the incremental path must
// reproduce bit for bit.
func coldTruth(t *testing.T, raw []byte, opts DiffOptions) (comparableResult, [][]Alert) {
	t.Helper()
	plain := opts.Options
	plain.Cache = nil
	plain.Parallelism = 1
	res, err := AnalyzeContext(context.Background(), raw, plain)
	if err != nil {
		t.Fatal(err)
	}
	alerts := make([][]Alert, len(res.Targets))
	for i, tr := range res.Targets {
		var its []uint32
		for _, c := range tr.TopCandidates(opts.TopK) {
			its = append(its, c.Entry)
		}
		a, err := tr.Scan(ScanOptions{Engine: opts.Engine, ITS: its, StringFilter: opts.StringFilter})
		if err != nil {
			t.Fatal(err)
		}
		alerts[i] = a
	}
	return normalize(res), alerts
}

// TestDiffMatchesColdAnalysis is the differential harness: for every
// version pair of every chain, at parallelism 1, 2, 4 and 8, with the cache
// cold and warm, the diff's new-side analysis and alerts must deep-equal a
// cold run, and the warm pass must reproduce the cold pass's report.
func TestDiffMatchesColdAnalysis(t *testing.T) {
	for _, spec := range synth.ChainDataset() {
		c := chainFor(t, spec)
		for vi := 0; vi+1 < len(c.Versions); vi++ {
			opts := DefaultDiffOptions()
			opts.TopK = 3
			wantNorm, wantAlerts := coldTruth(t, c.Versions[vi+1].Packed, opts)
			for _, workers := range []int{1, 2, 4, 8} {
				opts := DefaultDiffOptions()
				opts.Parallelism = workers
				opts.Cache = NewCache(0, 0)
				var firstReport *evolve.DiffReport
				for _, pass := range []string{"cold", "warm"} {
					d, err := DiffContext(context.Background(), c.Versions[vi].Packed, c.Versions[vi+1].Packed, opts)
					if err != nil {
						t.Fatalf("seed %d v%d->v%d workers=%d %s: %v", spec.Seed, vi, vi+1, workers, pass, err)
					}
					if got := normalize(d.New); !reflect.DeepEqual(got, wantNorm) {
						t.Errorf("seed %d v%d->v%d workers=%d %s: incremental analysis differs from cold run\ncold: %+v\ngot:  %+v",
							spec.Seed, vi, vi+1, workers, pass, wantNorm, got)
					}
					if !reflect.DeepEqual(d.NewAlerts, wantAlerts) {
						t.Errorf("seed %d v%d->v%d workers=%d %s: incremental alerts differ from cold run",
							spec.Seed, vi, vi+1, workers, pass)
					}
					if pass == "cold" {
						firstReport = d.Report
					} else if !reflect.DeepEqual(d.Report, firstReport) {
						t.Errorf("seed %d v%d->v%d workers=%d: warm report differs from cold report",
							spec.Seed, vi, vi+1, workers)
					}
				}
			}
		}
	}
}

// churnKey identifies an alert for ground-truth comparison: the binary, the
// entry of the function containing the sink call, and the sink.
type churnKey struct {
	Binary string
	Func   uint32
	Sink   string
}

// expectedChurn maps a step's expected alerts onto concrete sink-function
// entries via the manifest of the version the alerts exist in.
func expectedChurn(t *testing.T, m *synth.Manifest, want []synth.ExpectedAlert) map[churnKey]bool {
	t.Helper()
	out := map[churnKey]bool{}
	for _, e := range want {
		found := false
		for _, h := range m.Handlers {
			if h.Binary == e.Binary && h.SinkFuncName == e.SinkFuncName {
				out[churnKey{Binary: e.Binary, Func: h.SinkEntry, Sink: e.Sink}] = true
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("expected alert %+v not resolvable in manifest", e)
		}
	}
	return out
}

func reportChurn(r *evolve.DiffReport, pick func(td *evolve.TargetDiff) []evolve.Alert) map[churnKey]bool {
	out := map[churnKey]bool{}
	for i := range r.Targets {
		for _, a := range pick(&r.Targets[i]) {
			out[churnKey{Binary: a.Binary, Func: a.Func, Sink: a.Sink}] = true
		}
	}
	return out
}

// TestDiffChurnMatchesChains scores every chain step's DiffReport against
// the ground-truth evolution manifest: appeared and fixed alerts match
// exactly, renames are recovered through the similarity fallback, the ITS
// set is stable except (at most) across an ITS refactor, and the bulk of
// the new version's functions are reused.
func TestDiffChurnMatchesChains(t *testing.T) {
	for _, spec := range synth.ChainDataset() {
		c := chainFor(t, spec)
		for i, st := range c.Steps {
			d, err := Diff(c.Versions[i].Packed, c.Versions[i+1].Packed, DefaultDiffOptions())
			if err != nil {
				t.Fatalf("seed %d step %d: %v", spec.Seed, i, err)
			}
			r := d.Report
			wantAppeared := expectedChurn(t, &c.Versions[i+1].Manifest, st.Appeared)
			if got := reportChurn(r, func(td *evolve.TargetDiff) []evolve.Alert { return td.Appeared }); !reflect.DeepEqual(got, wantAppeared) {
				t.Errorf("seed %d step %d (%s): appeared = %v, want %v", spec.Seed, i, st.Kind, got, wantAppeared)
			}
			wantFixed := expectedChurn(t, &c.Versions[i].Manifest, st.Fixed)
			if got := reportChurn(r, func(td *evolve.TargetDiff) []evolve.Alert { return td.Fixed }); !reflect.DeepEqual(got, wantFixed) {
				t.Errorf("seed %d step %d (%s): fixed = %v, want %v", spec.Seed, i, st.Kind, got, wantFixed)
			}
			if r.AlertsPersisted == 0 {
				t.Errorf("seed %d step %d (%s): no persisted alerts", spec.Seed, i, st.Kind)
			}

			if st.Kind == synth.StepRenameExport {
				found := false
				for _, td := range r.Targets {
					for _, rn := range td.Renames {
						if rn.OldName == st.RenamedFrom && rn.NewName == st.RenamedTo {
							found = true
						}
					}
				}
				if !found {
					t.Errorf("seed %d step %d: rename %s -> %s not recovered by similarity fallback",
						spec.Seed, i, st.RenamedFrom, st.RenamedTo)
				}
			}

			// The inferred-source set is stable across every step except an
			// ITS refactor, which may re-home one source to a new entry.
			if st.Kind != synth.StepRefactorITS {
				if r.ITSAppeared != 0 || r.ITSFixed != 0 {
					t.Errorf("seed %d step %d (%s): ITS churn appeared=%d fixed=%d, want none",
						spec.Seed, i, st.Kind, r.ITSAppeared, r.ITSFixed)
				}
			} else if r.ITSAppeared != r.ITSFixed {
				t.Errorf("seed %d step %d: ITS refactor churn unbalanced: appeared=%d fixed=%d",
					spec.Seed, i, r.ITSAppeared, r.ITSFixed)
			}

			// One mutated function out of a hundred-plus: nearly everything
			// must have been reused.
			if r.ReuseRatio < 0.9 {
				t.Errorf("seed %d step %d (%s): reuse ratio %.2f (%d/%d), want >= 0.9",
					spec.Seed, i, st.Kind, r.ReuseRatio, r.ReusedFuncs, r.TotalFuncs)
			}
		}
	}
}

// TestDiffIdenticalVersions diffs an image against itself: everything
// persists, nothing churns, and every function is reused.
func TestDiffIdenticalVersions(t *testing.T) {
	c := chainFor(t, synth.ChainDataset()[0])
	raw := c.Versions[0].Packed
	d, err := Diff(raw, raw, DefaultDiffOptions())
	if err != nil {
		t.Fatal(err)
	}
	r := d.Report
	if r.AlertsAppeared != 0 || r.AlertsFixed != 0 || r.ITSAppeared != 0 || r.ITSFixed != 0 {
		t.Errorf("self-diff churned: %+v", r)
	}
	if r.AlertsPersisted == 0 || r.ITSPersisted == 0 {
		t.Error("self-diff reports nothing persisted")
	}
	if r.ReuseRatio != 1 {
		t.Errorf("self-diff reuse ratio = %.2f (%d/%d), want 1", r.ReuseRatio, r.ReusedFuncs, r.TotalFuncs)
	}
	for _, td := range r.Targets {
		if td.MatchedIdentical == 0 || td.UnmatchedNew != 0 || td.UnmatchedOld != 0 {
			t.Errorf("self-diff alignment for %s: %+v", td.Path, td)
		}
	}
}
