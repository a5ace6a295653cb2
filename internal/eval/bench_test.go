package eval

// The table benchmarks regenerate every table and figure of the paper's
// evaluation section against the synthetic corpus. Each benchmark prints
// its paper-style table once and reports the headline numbers as metrics,
// so
//
//	go test -run='^$' -bench=. -benchtime=1x ./internal/eval
//
// reproduces the complete evaluation. Absolute values differ from the paper
// (the substrate is a synthetic corpus, not the authors' firmware archive);
// the shapes — who wins, by what factor, where the failures sit — are the
// reproduction targets, recorded in EXPERIMENTS.md. Every op gets a fresh
// model cache, so each op runs every stage and engine: a cache shared
// across ops would turn the second op on into memo lookups.

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"fits/internal/infer"
	"fits/internal/loader"
	"fits/internal/modelcache"
	"fits/internal/synth"
	"fits/internal/verify"
)

var printed sync.Map // table name -> struct{}

// printTable prints a table the first time its benchmark finishes an op.
func printTable(name, content string) {
	if _, dup := printed.LoadOrStore(name, struct{}{}); !dup {
		fmt.Printf("\n== %s ==\n%s\n", name, content)
	}
}

// BenchmarkTable3_ITSInference regenerates Table 3: per-vendor top-1/2/3
// inference precision and analysis times over all 59 samples.
func BenchmarkTable3_ITSInference(b *testing.B) {
	samples := testCorpus(b)
	var t1, t2, t3 float64
	for i := 0; i < b.N; i++ {
		results := RunInferenceCorpus(context.Background(), samples, cachedConfig(modelcache.New(0, 0)))
		t1, t2, t3 = OverallPrecision(results)
		printTable("Table 3: ITS inference precision", FormatTable3(Table3(results)))
	}
	b.ReportMetric(100*t1, "top1-%")
	b.ReportMetric(100*t2, "top2-%")
	b.ReportMetric(100*t3, "top3-%")
}

// BenchmarkTable3_BootStompBaseline regenerates the RQ1 comparison: the
// keyword heuristic proposes sources in many firmware but none are ITSs.
func BenchmarkTable3_BootStompBaseline(b *testing.B) {
	samples := testCorpus(b)
	var proposed, correct int
	for i := 0; i < b.N; i++ {
		proposed, correct = BootStompBaseline(context.Background(), modelcache.New(0, 0), samples)
	}
	printTable("RQ1: BootStomp baseline",
		fmt.Sprintf("proposals in %d/%d firmware; correct taint sources: %d\n", proposed, len(samples), correct))
	b.ReportMetric(float64(correct), "correct-sources")
}

// BenchmarkTable4_PartialResults regenerates Table 4: per-firmware detail
// (binary, function count, ITS address, rank) for a vendor selection.
func BenchmarkTable4_PartialResults(b *testing.B) {
	samples := testCorpus(b)
	var rows []DetailRow
	for i := 0; i < b.N; i++ {
		rows = table4(context.Background(), modelcache.New(0, 0), samples, 3)
	}
	printTable("Table 4: partial ITS inference results", formatTable4(rows))
	b.ReportMetric(float64(len(rows)), "rows")
}

// BenchmarkTable5_BugFinding regenerates Table 5: alerts, bugs and times
// for Karonte, Karonte-ITS, STA and STA-ITS over the corpus.
func BenchmarkTable5_BugFinding(b *testing.B) {
	samples := testCorpus(b)
	var totalBugs [4]int
	for i := 0; i < b.N; i++ {
		rows, ta, tb := table5(context.Background(), modelcache.New(0, 0), samples)
		totalBugs = tb
		printTable("Table 5: bug finding results", formatTable5(rows, ta, tb))
	}
	b.ReportMetric(float64(totalBugs[EngineKaronte]), "karonte-bugs")
	b.ReportMetric(float64(totalBugs[EngineKaronteITS]), "karonte-its-bugs")
	b.ReportMetric(float64(totalBugs[EngineSTA]), "sta-bugs")
	b.ReportMetric(float64(totalBugs[EngineSTAITS]), "sta-its-bugs")
}

// BenchmarkTable6_FalsePositives regenerates Table 6: per-engine false
// positive rates.
func BenchmarkTable6_FalsePositives(b *testing.B) {
	samples := testCorpus(b)
	var fp [4]float64
	for i := 0; i < b.N; i++ {
		_, ta, tb := table5(context.Background(), modelcache.New(0, 0), samples)
		fp = falsePositiveRates(ta, tb)
	}
	printTable("Table 6: false positive rates", fmt.Sprintf(
		"Karonte %.1f%%   Karonte-ITS %.1f%%   STA %.1f%%   STA-ITS %.1f%%\n",
		100*fp[0], 100*fp[1], 100*fp[2], 100*fp[3]))
	b.ReportMetric(100*fp[EngineSTA], "sta-fp-%")
	b.ReportMetric(100*fp[EngineSTAITS], "sta-its-fp-%")
}

// BenchmarkFigure4_TimeOverhead regenerates Figure 4: analysis time against
// function count and binary size, reported as correlations.
func BenchmarkFigure4_TimeOverhead(b *testing.B) {
	samples := testCorpus(b)
	var byFuncs, bySize float64
	for i := 0; i < b.N; i++ {
		points := figure4(context.Background(), samples)
		byFuncs = correlation(points, func(p TimePoint) float64 { return float64(p.Funcs) })
		bySize = correlation(points, func(p TimePoint) float64 { return p.SizeKB })
		if i == 0 {
			var s string
			for _, p := range points[:min(8, len(points))] {
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
	samples := testCorpus(b)
	var rows []AblationRow
	for i := 0; i < b.N; i++ {
		rows = figure5(context.Background(), modelcache.New(0, 0), samples)
	}
	printTable("Figure 5: BFV ablation (CF-i = drop feature i)", formatAblation(rows))
	b.ReportMetric(100*rows[0].Top3, "bfv-top3-%")
}

// BenchmarkTable7_Representations regenerates Table 7: BFV against the
// Augmented-CFG and Attributed-CFG baselines.
func BenchmarkTable7_Representations(b *testing.B) {
	samples := testCorpus(b)
	var rows []AblationRow
	for i := 0; i < b.N; i++ {
		rows = table7(context.Background(), modelcache.New(0, 0), samples)
	}
	printTable("Table 7: representation comparison", formatAblation(rows))
	b.ReportMetric(100*rows[len(rows)-1].Top3, "bfv-top3-%")
}

// BenchmarkTable8_Distances regenerates Table 8: the similarity metric
// comparison for the scoring stage.
func BenchmarkTable8_Distances(b *testing.B) {
	samples := testCorpus(b)
	var rows []AblationRow
	for i := 0; i < b.N; i++ {
		rows = table8(context.Background(), modelcache.New(0, 0), samples)
	}
	printTable("Table 8: scoring metric comparison", formatAblation(rows))
	b.ReportMetric(100*rows[len(rows)-1].Top3, "cosine-top3-%")
}

// BenchmarkRQ4_StrategyBaselines regenerates the RQ4 strategy comparison:
// clustering against no-clustering, PCA, standardization and normalization.
func BenchmarkRQ4_StrategyBaselines(b *testing.B) {
	samples := testCorpus(b)
	var rows []AblationRow
	for i := 0; i < b.N; i++ {
		rows = rq4Strategies(context.Background(), modelcache.New(0, 0), samples)
	}
	printTable("RQ4: candidate selection strategies", formatAblation(rows))
	b.ReportMetric(100*rows[len(rows)-1].Top3, "cluster-top3-%")
}

// BenchmarkCaseStudy_DeepFlow regenerates the §4.3 case study: the deepest
// planted flow is reachable from the intermediate source but not from the
// classical source under engine budgets.
func BenchmarkCaseStudy_DeepFlow(b *testing.B) {
	samples := testCorpus(b)
	var cs CaseStudy
	for i := 0; i < b.N; i++ {
		cs = runCaseStudy(context.Background(), modelcache.New(0, 0), samples)
	}
	printTable("Case study: deepest flow", fmt.Sprintf(
		"firmware %s: source-to-sink depth %d calls, ITS-to-sink %d calls\n"+
			"  Karonte(CTS)=%v Karonte-ITS=%v STA(CTS)=%v STA-ITS=%v\n",
		cs.Product, cs.CTSDepth, cs.ITSDepth,
		cs.KaronteCTS, cs.KaronteITS, cs.STACTS, cs.STAITS))
	b.ReportMetric(float64(cs.CTSDepth), "cts-depth")
	b.ReportMetric(float64(cs.ITSDepth), "its-depth")
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
	var rows []XScoreRow
	for i := 0; i < b.N; i++ {
		if rows, err = runXScore(context.Background(), modelcache.New(0, 0), x); err != nil {
			b.Fatal(err)
		}
	}
	printTable("Cross-binary corpus: mode comparison", formatXScore(rows))
	last := rows[len(rows)-1]
	b.ReportMetric(100*last.Recall, "cross-recall-%")
	b.ReportMetric(float64(last.CrossTP), "cross-flows-found")
	b.ReportMetric(float64(rows[0].CrossTP+rows[1].CrossTP), "cross-flows-found-baselines")
}

// BenchmarkAppendixA_Verification regenerates the Appendix A workflow: every
// inferred top-3 candidate is executed under the emulator against a planted
// request store; confirmed extract-and-return behaviour makes it a usable
// taint source with the return register as taint origin.
func BenchmarkAppendixA_Verification(b *testing.B) {
	samples := testCorpus(b)
	var checked, confirmed, plantedConfirmed, planted int
	for i := 0; i < b.N; i++ {
		checked, confirmed, plantedConfirmed, planted = 0, 0, 0, 0
		for _, s := range samples {
			res, err := loader.LoadContext(context.Background(), s.Packed, loader.Options{})
			if err != nil {
				continue
			}
			planted += len(s.Manifest.ITS)
			for _, t := range res.Targets {
				ranking, err := infer.InferTargetContext(context.Background(), t, infer.DefaultConfig())
				if err != nil {
					b.Fatal(err)
				}
				for _, c := range ranking.Top(3) {
					checked++
					if verify.Candidate(t.Bin, t.Model, c.Entry).Verified {
						confirmed++
						if s.Manifest.IsITS(t.Bin.Name, c.Entry) {
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
