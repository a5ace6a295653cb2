package fits

// The pipeline benchmarks measure the public API end to end: one image
// cold and cache-warm, the cross-binary corpus scan, evolution diffs, and
// the parallelism sweep. make bench-smoke gates them against
// BENCH_pipeline.json. The paper's tables and figures are benchmarks of
// internal/eval (see EXPERIMENTS.md).

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"fits/internal/stagetime"
	"fits/internal/synth"
)

var (
	corpusOnce sync.Once
	corpus     []*synth.Sample
)

// benchCorpus generates the 59-sample dataset once for all benchmarks.
func benchCorpus(b *testing.B) []*synth.Sample {
	b.Helper()
	corpusOnce.Do(func() {
		var err error
		corpus, err = synth.GenerateCorpus()
		if err != nil {
			b.Fatalf("corpus: %v", err)
		}
	})
	return corpus
}

// BenchmarkPipeline_SingleFirmware measures the end-to-end cost of the
// public API on one firmware image (unpack + model + infer) in an
// uninstrumented timed loop. The per-stage breakdown comes from b.N untimed
// analyses at Parallelism 1, where the stages' self times partition each
// analysis and allocation attribution is exact: <stage>-ns/op and
// <stage>-allocs/op for decode, lift, cfg, reachdef and infer. Taint and
// the precision passes nested in it (alias, pathcheck) are measured by one
// top-3 ITS scan per target of the last analysis and reported per scan.
func BenchmarkPipeline_SingleFirmware(b *testing.B) {
	samples := benchCorpus(b)
	raw := samples[0].Packed
	opts := DefaultOptions()
	b.ResetTimer()
	var res *Result
	var err error
	for i := 0; i < b.N; i++ {
		if res, err = Analyze(raw, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	stages := new(StageTimer)
	opts.Parallelism = 1
	opts.Stages = stages
	for i := 0; i < b.N; i++ {
		if res, err = Analyze(raw, opts); err != nil {
			b.Fatal(err)
		}
	}
	scanStages := map[stagetime.Stage]bool{
		stagetime.Taint: true, stagetime.Alias: true, stagetime.PathCheck: true,
	}
	for _, st := range stagetime.Stages() {
		if scanStages[st] {
			continue
		}
		b.ReportMetric(float64(stages.WallNanos(st))/float64(b.N), st.String()+"-ns/op")
		b.ReportMetric(float64(stages.Allocs(st))/float64(b.N), st.String()+"-allocs/op")
	}
	// Each scan is the analyst flow's: seeded with the target's top-3
	// candidates, string filter on, so the taint fixpoint runs and not
	// only the region pass of a sourceless CTS scan.
	scans := 0
	for _, t := range res.Targets {
		var its []uint32
		for _, c := range t.TopCandidates(3) {
			its = append(its, c.Entry)
		}
		if _, err := t.Scan(ScanOptions{ITS: its, StringFilter: true}); err != nil {
			b.Fatal(err)
		}
		scans++
	}
	if scans > 0 {
		b.ReportMetric(float64(stages.WallNanos(stagetime.Taint))/float64(scans), "taint-ns/scan")
		b.ReportMetric(float64(stages.Allocs(stagetime.Taint))/float64(scans), "taint-allocs/scan")
		// The precision passes run inside each scan, so for them one
		// scan is the op these units are normalized over.
		b.ReportMetric(float64(stages.WallNanos(stagetime.Alias))/float64(scans), "alias-ns/op")
		b.ReportMetric(float64(stages.Allocs(stagetime.Alias))/float64(scans), "alias-allocs/op")
		b.ReportMetric(float64(stages.WallNanos(stagetime.PathCheck))/float64(scans), "pathcheck-ns/op")
		b.ReportMetric(float64(stages.Allocs(stagetime.PathCheck))/float64(scans), "pathcheck-allocs/op")
	}
}

// BenchmarkPipeline_SingleFirmwareCached is the same pipeline behind a warm
// model cache: the first analysis (outside the timed loop) lifts the models,
// the timed iterations reuse them. The cache-hit-% metric reports the
// cache's lifetime hit rate so bench-smoke can track amortization.
func BenchmarkPipeline_SingleFirmwareCached(b *testing.B) {
	samples := benchCorpus(b)
	raw := samples[0].Packed
	opts := DefaultOptions()
	opts.Cache = NewCache(0, 0)
	if _, err := Analyze(raw, opts); err != nil {
		b.Fatal(err) // warm the cache
	}
	b.ResetTimer()
	var res *Result
	var err error
	for i := 0; i < b.N; i++ {
		if res, err = Analyze(raw, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if res.Cache.Lifted != 0 {
		b.Fatalf("warm run lifted %d models, want 0", res.Cache.Lifted)
	}
	b.ReportMetric(100*opts.Cache.Stats().HitRate(), "cache-hit-%")
}

var (
	benchXCorpusOnce sync.Once
	benchXCorpusVal  []CorpusFile
	benchXCorpusErr  error
)

// benchXCorpus generates the multi-binary cross-channel corpus once for the
// corpus benchmarks.
func benchXCorpus(b *testing.B) []CorpusFile {
	b.Helper()
	benchXCorpusOnce.Do(func() {
		x, err := synth.GenerateXCorpus(1)
		if err != nil {
			benchXCorpusErr = err
			return
		}
		for _, f := range x.Files {
			benchXCorpusVal = append(benchXCorpusVal, CorpusFile{Path: f.Path, Data: f.Data})
		}
	})
	if benchXCorpusErr != nil {
		b.Fatalf("xcorpus: %v", benchXCorpusErr)
	}
	return benchXCorpusVal
}

// BenchmarkPipeline_CorpusXScan measures the full cross-binary corpus scan —
// front-end sweep, corpus load, keyword seeding and the channel fixpoint —
// on the synthetic multi-binary corpus. Rounds and cross-alert counts land
// as metrics so bench-smoke catches a fixpoint that stops converging in the
// same number of rounds.
func BenchmarkPipeline_CorpusXScan(b *testing.B) {
	files := benchXCorpus(b)
	b.ResetTimer()
	var rep *CorpusReport
	var err error
	for i := 0; i < b.N; i++ {
		if rep, err = XScan(files, XScanOptions{StringFilter: true}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(rep.Rounds), "rounds")
	b.ReportMetric(float64(rep.CrossHit), "cross-alerts")
	b.ReportMetric(float64(len(rep.Binaries)), "binaries")
}

// BenchmarkPipeline_CorpusXScanCached is the corpus scan behind a warm
// cache: models, rankings and per-round scan results are all reused, so the
// timed iterations pay only the front-end sweep, decode and the join logic.
func BenchmarkPipeline_CorpusXScanCached(b *testing.B) {
	files := benchXCorpus(b)
	opts := XScanOptions{StringFilter: true, Cache: NewCache(0, 0)}
	if _, err := XScan(files, opts); err != nil {
		b.Fatal(err) // warm the cache
	}
	b.ResetTimer()
	var rep *CorpusReport
	var err error
	for i := 0; i < b.N; i++ {
		if rep, err = XScan(files, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(rep.CrossHit), "cross-alerts")
	b.ReportMetric(100*opts.Cache.Stats().HitRate(), "cache-hit-%")
}

var (
	benchChainOnce sync.Once
	benchChainVal  *synth.Chain
	benchChainErr  error
)

// benchChain generates one evolution chain (two versions, one mutated
// function) for the diff benchmarks.
func benchChain(b *testing.B) *synth.Chain {
	b.Helper()
	benchChainOnce.Do(func() {
		benchChainVal, benchChainErr = synth.GenerateChain(synth.ChainDataset()[0])
	})
	if benchChainErr != nil {
		b.Fatalf("chain: %v", benchChainErr)
	}
	return benchChainVal
}

// BenchmarkPipeline_DiffCold measures an evolution diff with a cold cache
// on every iteration: the old version pays full analysis, the new one
// reuses only what the two share through that cache, and evolve pairs
// functions over freshly built models. This is the floor the warm path is
// measured against.
func BenchmarkPipeline_DiffCold(b *testing.B) {
	c := benchChain(b)
	oldRaw, newRaw := c.Versions[0].Packed, c.Versions[1].Packed
	b.ResetTimer()
	var d *DiffResult
	var err error
	for i := 0; i < b.N; i++ {
		opts := DefaultDiffOptions()
		opts.Cache = NewCache(0, 0)
		if d, err = Diff(oldRaw, newRaw, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(d.Report.ReuseRatio, "reuse-ratio")
}

// BenchmarkPipeline_DiffWarm is the same diff behind a warm cache: the
// first diff (outside the timed loop) populates models, vectors, rankings
// and alerts for both versions; the timed iterations hit the cache for both
// analyses and scans and pay mainly for evolve's pairing (cfg.AlignReuse
// and the alignment tiers). The reuse-ratio metric lands in
// BENCH_pipeline.json next to the cold number so CI tracks the pairing.
func BenchmarkPipeline_DiffWarm(b *testing.B) {
	c := benchChain(b)
	oldRaw, newRaw := c.Versions[0].Packed, c.Versions[1].Packed
	opts := DefaultDiffOptions()
	opts.Cache = NewCache(0, 0)
	if _, err := Diff(oldRaw, newRaw, opts); err != nil {
		b.Fatal(err) // warm the cache
	}
	b.ResetTimer()
	var d *DiffResult
	var err error
	for i := 0; i < b.N; i++ {
		if d, err = Diff(oldRaw, newRaw, opts); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if d.Report.ReuseRatio < 0.9 {
		b.Fatalf("warm diff reused only %.2f of functions", d.Report.ReuseRatio)
	}
	b.ReportMetric(d.Report.ReuseRatio, "reuse-ratio")
}

// BenchmarkAnalyzeParallel sweeps the worker count over a fixed slice of the
// corpus and cross-checks that every parallelism level produces the same
// result as the serial run. Each jN variant reports its wall-clock speedup
// over the j1 baseline as the "speedup-x" metric; the number tracks the
// host's core count (a single-core host pins it near 1.0, since the
// pipeline is CPU-bound).
func BenchmarkAnalyzeParallel(b *testing.B) {
	samples := benchCorpus(b)
	subset := samples[:min(8, len(samples))]
	// The j1 state is shared across the b.Run sub-benchmarks. The framework
	// may invoke a sub-benchmark's closure several times while ramping b.N
	// toward -benchtime, and a filter like -bench 'Parallel/j4' can skip j1
	// entirely, so: j1 marks itself ran and records the b.N its baseline was
	// measured at — only a re-entry at least as long may overwrite it — and
	// the jN variants compare and report speedup only when j1 actually ran.
	var baseline []comparableResult
	var baseNsPerOp float64
	var baseN int
	j1Ran := false
	for _, j := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("j%d", j), func(b *testing.B) {
			opts := DefaultOptions()
			opts.Parallelism = j
			var results []comparableResult
			for i := 0; i < b.N; i++ {
				results = results[:0]
				for _, s := range subset {
					res, err := AnalyzeContext(context.Background(), s.Packed, opts)
					if err != nil {
						b.Fatal(err)
					}
					results = append(results, normalize(res))
				}
			}
			b.StopTimer()
			nsPerOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
			if j == 1 {
				if !j1Ran || b.N >= baseN {
					baseline = append(baseline[:0], results...)
					baseNsPerOp = nsPerOp
					baseN = b.N
					j1Ran = true
				}
			} else if j1Ran {
				if !reflect.DeepEqual(results, baseline) {
					b.Fatalf("result at parallelism %d differs from serial run", j)
				}
				if baseNsPerOp > 0 {
					b.ReportMetric(baseNsPerOp/nsPerOp, "speedup-x")
				}
			}
		})
	}
}
