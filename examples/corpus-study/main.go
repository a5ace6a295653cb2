// Corpus-study: regenerate the paper's headline result (Table 3) over the
// full 59-sample dataset — per-vendor top-1/2/3 inference precision — plus
// the RQ1 BootStomp comparison.
package main

import (
	"context"
	"fmt"
	"log"

	"fits/internal/eval"
	"fits/internal/infer"
	"fits/internal/modelcache"
	"fits/internal/synth"
)

func main() {
	log.SetFlags(0)

	fmt.Println("generating the 59-sample corpus...")
	samples, err := synth.GenerateCorpus()
	if err != nil {
		log.Fatal(err)
	}
	bugs := 0
	for _, s := range samples {
		bugs += s.Manifest.TrueBugs()
	}
	fmt.Printf("%d samples, %d planted bugs\n\n", len(samples), bugs)

	ctx, cache := context.Background(), modelcache.New(0, 0)
	cfg := infer.DefaultConfig()
	cfg.Cache = cache
	results := eval.RunInferenceCorpus(ctx, samples, cfg)
	fmt.Println("Table 3 — ITS inference precision:")
	fmt.Println(eval.FormatTable3(eval.Table3(results)))

	proposed, correct := eval.BootStompBaseline(ctx, cache, samples)
	fmt.Printf("BootStomp keyword baseline: proposals in %d/%d firmware, correct sources: %d\n",
		proposed, len(samples), correct)

	misses := 0
	for _, r := range results {
		if !r.TopN(3) {
			misses++
		}
	}
	fmt.Printf("\n%d samples missed top-3 (engineered failures: 6).\n", misses)
}
