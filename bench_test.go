package fits

// The benchmark harness regenerates every table and figure of the paper's
// evaluation section against the synthetic corpus. Each benchmark prints its
// paper-style table once and reports the headline numbers as metrics, so
//
//	go test -bench=. -benchmem
//
// reproduces the complete evaluation. Absolute values differ from the paper
// (the substrate is a synthetic corpus, not the authors' firmware archive);
// the shapes — who wins, by what factor, where the failures sit — are the
// reproduction targets, recorded in EXPERIMENTS.md. Every op of an eval
// benchmark gets a fresh model cache, so each op runs every stage and engine:
// a cache shared across ops would turn the second op on into memo lookups.

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"fits/internal/eval"
	"fits/internal/infer"
	"fits/internal/loader"
	"fits/internal/modelcache"
	"fits/internal/stagetime"
	"fits/internal/synth"
	"fits/internal/verify"
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

var printOnce = map[string]*sync.Once{}
var printMu sync.Mutex

func printTable(name, content string) {
	printMu.Lock()
	once, ok := printOnce[name]
	if !ok {
		once = &sync.Once{}
		printOnce[name] = once
	}
	printMu.Unlock()
	once.Do(func() { fmt.Printf("\n== %s ==\n%s\n", name, content) })
}

// BenchmarkTable3_ITSInference regenerates Table 3: per-vendor top-1/2/3
// inference precision and analysis times over all 59 samples.
func BenchmarkTable3_ITSInference(b *testing.B) {
	samples := benchCorpus(b)
	var t1, t2, t3 float64
	for i := 0; i < b.N; i++ {
		cfg := infer.DefaultConfig()
		cfg.Cache = modelcache.New(0, 0)
		results := eval.RunInferenceCorpus(context.Background(), samples, cfg)
		t1, t2, t3 = eval.OverallPrecision(results)
		printTable("Table 3: ITS inference precision", eval.FormatTable3(eval.Table3(results)))
	}
	b.ReportMetric(100*t1, "top1-%")
	b.ReportMetric(100*t2, "top2-%")
	b.ReportMetric(100*t3, "top3-%")
}

// BenchmarkTable3_BootStompBaseline regenerates the RQ1 comparison: the
// keyword heuristic proposes sources in many firmware but none are ITSs.
func BenchmarkTable3_BootStompBaseline(b *testing.B) {
	samples := benchCorpus(b)
	var proposed, correct int
	for i := 0; i < b.N; i++ {
		proposed, correct = eval.BootStompBaseline(context.Background(), modelcache.New(0, 0), samples)
	}
	printTable("RQ1: BootStomp baseline",
		fmt.Sprintf("proposals in %d/%d firmware; correct taint sources: %d\n", proposed, len(samples), correct))
	b.ReportMetric(float64(correct), "correct-sources")
}

// BenchmarkTable4_PartialResults regenerates Table 4: per-firmware detail
// (binary, function count, ITS address, rank) for a vendor selection.
func BenchmarkTable4_PartialResults(b *testing.B) {
	samples := benchCorpus(b)
	var rows []eval.DetailRow
	for i := 0; i < b.N; i++ {
		rows = eval.Table4(context.Background(), modelcache.New(0, 0), samples, 3)
	}
	printTable("Table 4: partial ITS inference results", eval.FormatTable4(rows))
	b.ReportMetric(float64(len(rows)), "rows")
}

// BenchmarkTable5_BugFinding regenerates Table 5: alerts, bugs and times
// for Karonte, Karonte-ITS, STA and STA-ITS over the corpus.
func BenchmarkTable5_BugFinding(b *testing.B) {
	samples := benchCorpus(b)
	var totalBugs [4]int
	for i := 0; i < b.N; i++ {
		rows, ta, tb := eval.Table5(context.Background(), modelcache.New(0, 0), samples)
		totalBugs = tb
		printTable("Table 5: bug finding results", eval.FormatTable5(rows, ta, tb))
	}
	b.ReportMetric(float64(totalBugs[eval.EngineKaronte]), "karonte-bugs")
	b.ReportMetric(float64(totalBugs[eval.EngineKaronteITS]), "karonte-its-bugs")
	b.ReportMetric(float64(totalBugs[eval.EngineSTA]), "sta-bugs")
	b.ReportMetric(float64(totalBugs[eval.EngineSTAITS]), "sta-its-bugs")
}

// BenchmarkTable6_FalsePositives regenerates Table 6: per-engine false
// positive rates.
func BenchmarkTable6_FalsePositives(b *testing.B) {
	samples := benchCorpus(b)
	var fp [4]float64
	for i := 0; i < b.N; i++ {
		_, ta, tb := eval.Table5(context.Background(), modelcache.New(0, 0), samples)
		fp = eval.FalsePositiveRates(ta, tb)
	}
	printTable("Table 6: false positive rates", fmt.Sprintf(
		"Karonte %.1f%%   Karonte-ITS %.1f%%   STA %.1f%%   STA-ITS %.1f%%\n",
		100*fp[0], 100*fp[1], 100*fp[2], 100*fp[3]))
	b.ReportMetric(100*fp[eval.EngineSTA], "sta-fp-%")
	b.ReportMetric(100*fp[eval.EngineSTAITS], "sta-its-fp-%")
}

// BenchmarkFigure4_TimeOverhead regenerates Figure 4: analysis time against
// function count and binary size, reported as correlations.
func BenchmarkFigure4_TimeOverhead(b *testing.B) {
	samples := benchCorpus(b)
	var byFuncs, bySize float64
	for i := 0; i < b.N; i++ {
		points := eval.Figure4(context.Background(), samples)
		byFuncs = eval.Correlation(points, func(p eval.TimePoint) float64 { return float64(p.Funcs) })
		bySize = eval.Correlation(points, func(p eval.TimePoint) float64 { return p.SizeKB })
		if i == 0 {
			var s string
			for _, p := range points[:minInt(8, len(points))] {
				s += fmt.Sprintf("  funcs=%4d size=%6.1fKB time=%s\n", p.Funcs, p.SizeKB, p.Elapsed.Round(1e6))
			}
			s += fmt.Sprintf("  ... (%d samples)\n  corr(time, funcs)=%.2f  corr(time, size)=%.2f\n",
				len(points), byFuncs, bySize)
			printTable("Figure 4: time overhead", s)
		}
	}
	b.ReportMetric(byFuncs, "corr-funcs")
	b.ReportMetric(bySize, "corr-size")
}

// BenchmarkFigure5_Ablation regenerates Figure 5: the CF-1..CF-11 feature
// ablation against the full BFV.
func BenchmarkFigure5_Ablation(b *testing.B) {
	samples := benchCorpus(b)
	var rows []eval.AblationRow
	for i := 0; i < b.N; i++ {
		rows = eval.Figure5(context.Background(), modelcache.New(0, 0), samples)
	}
	printTable("Figure 5: BFV ablation (CF-i = drop feature i)", eval.FormatAblation(rows))
	b.ReportMetric(100*rows[0].Top3, "bfv-top3-%")
}

// BenchmarkTable7_Representations regenerates Table 7: BFV against the
// Augmented-CFG and Attributed-CFG baselines.
func BenchmarkTable7_Representations(b *testing.B) {
	samples := benchCorpus(b)
	var rows []eval.AblationRow
	for i := 0; i < b.N; i++ {
		rows = eval.Table7(context.Background(), modelcache.New(0, 0), samples)
	}
	printTable("Table 7: representation comparison", eval.FormatAblation(rows))
	b.ReportMetric(100*rows[len(rows)-1].Top3, "bfv-top3-%")
}

// BenchmarkTable8_Distances regenerates Table 8: the similarity metric
// comparison for the scoring stage.
func BenchmarkTable8_Distances(b *testing.B) {
	samples := benchCorpus(b)
	var rows []eval.AblationRow
	for i := 0; i < b.N; i++ {
		rows = eval.Table8(context.Background(), modelcache.New(0, 0), samples)
	}
	printTable("Table 8: scoring metric comparison", eval.FormatAblation(rows))
	b.ReportMetric(100*rows[len(rows)-1].Top3, "cosine-top3-%")
}

// BenchmarkRQ4_StrategyBaselines regenerates the RQ4 strategy comparison:
// clustering against no-clustering, PCA, standardization and normalization.
func BenchmarkRQ4_StrategyBaselines(b *testing.B) {
	samples := benchCorpus(b)
	var rows []eval.AblationRow
	for i := 0; i < b.N; i++ {
		rows = eval.RQ4Strategies(context.Background(), modelcache.New(0, 0), samples)
	}
	printTable("RQ4: candidate selection strategies", eval.FormatAblation(rows))
	b.ReportMetric(100*rows[len(rows)-1].Top3, "cluster-top3-%")
}

// BenchmarkCaseStudy_DeepFlow regenerates the §4.3 case study: the deepest
// planted flow is reachable from the intermediate source but not from the
// classical source under engine budgets.
func BenchmarkCaseStudy_DeepFlow(b *testing.B) {
	samples := benchCorpus(b)
	deepest := eval.DeepestSamples(samples)[0]
	var cs eval.CaseStudy
	for i := 0; i < b.N; i++ {
		cs = eval.RunCaseStudy(context.Background(), modelcache.New(0, 0), deepest)
	}
	printTable("Case study: deepest flow", fmt.Sprintf(
		"firmware %s: source-to-sink depth %d calls, ITS-to-sink %d calls\n"+
			"  Karonte(CTS)=%v Karonte-ITS=%v STA(CTS)=%v STA-ITS=%v\n",
		cs.Product, cs.CTSDepth, cs.ITSDepth,
		cs.KaronteCTS, cs.KaronteITS, cs.STACTS, cs.STAITS))
	b.ReportMetric(float64(cs.CTSDepth), "cts-depth")
	b.ReportMetric(float64(cs.ITSDepth), "its-depth")
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

// BenchmarkCrossCorpus_ModeComparison regenerates the cross-binary
// evaluation table: CTS, CTS+ITS and the keyword-seeded cross-binary
// fixpoint scored against the planted corpus flows. The cross-flow recall
// gap is the subsystem's reproduction target.
func BenchmarkCrossCorpus_ModeComparison(b *testing.B) {
	x, err := synth.GenerateXCorpus(1)
	if err != nil {
		b.Fatal(err)
	}
	var rows []eval.XScoreRow
	for i := 0; i < b.N; i++ {
		if rows, err = eval.RunXScore(context.Background(), modelcache.New(0, 0), x); err != nil {
			b.Fatal(err)
		}
	}
	printTable("Cross-binary corpus: mode comparison", eval.FormatXScore(rows))
	last := rows[len(rows)-1]
	b.ReportMetric(100*last.Recall, "cross-recall-%")
	b.ReportMetric(float64(last.CrossTP), "cross-flows-found")
	b.ReportMetric(float64(rows[0].CrossTP+rows[1].CrossTP), "cross-flows-found-baselines")
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
	subset := samples[:minInt(8, len(samples))]
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

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// BenchmarkAppendixA_Verification regenerates the Appendix A workflow: every
// inferred top-3 candidate is executed under the emulator against a planted
// request store; confirmed extract-and-return behaviour makes it a usable
// taint source with the return register as taint origin.
func BenchmarkAppendixA_Verification(b *testing.B) {
	samples := benchCorpus(b)
	var checked, confirmed, plantedConfirmed, planted int
	for i := 0; i < b.N; i++ {
		checked, confirmed, plantedConfirmed, planted = 0, 0, 0, 0
		for _, s := range samples {
			res, err := loader.LoadContext(context.Background(), s.Packed, loader.Options{})
			if err != nil {
				continue
			}
			truth := map[uint32]bool{}
			for _, its := range s.Manifest.ITS {
				truth[its.Entry] = true
			}
			planted += len(s.Manifest.ITS)
			for _, t := range res.Targets {
				ranking, err := infer.InferTargetContext(context.Background(), t, infer.DefaultConfig())
				if err != nil {
					b.Fatal(err)
				}
				for _, c := range ranking.Top(3) {
					checked++
					o := verify.Candidate(t.Bin, t.Model, c.Entry)
					if o.Verified {
						confirmed++
						if truth[c.Entry] {
							plantedConfirmed++
						}
					}
				}
			}
		}
	}
	printTable("Appendix A: dynamic ITS verification", fmt.Sprintf(
		"top-3 candidates checked: %d; dynamically confirmed: %d\n"+
			"planted ITSs: %d; planted ITSs confirmed among top-3: %d\n",
		checked, confirmed, planted, plantedConfirmed))
	b.ReportMetric(float64(confirmed), "confirmed")
	b.ReportMetric(float64(plantedConfirmed), "planted-confirmed")
}
