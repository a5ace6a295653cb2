// Quickstart: generate one firmware sample, run ITS inference on it, and
// print the ranked candidates next to the ground truth.
package main

import (
	"fmt"
	"log"

	"fits"
	"fits/internal/synth"
)

func main() {
	log.SetFlags(0)

	// Generate one NETGEAR-profile firmware image (deterministic).
	spec := synth.Dataset()[0]
	sample, err := synth.Generate(spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("firmware: %s %s %s (%d bytes packed, arch %s)\n",
		spec.Vendor, spec.Product, spec.Version, len(sample.Packed), sample.Manifest.Arch)

	// Run the full pipeline: carve + decrypt + select + model + infer.
	res, err := fits.Analyze(sample.Packed, fits.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}

	for _, t := range res.Targets {
		truth := map[uint32]string{} // this binary's planted ITSs
		for _, its := range sample.Manifest.ITSIn(t.Binary) {
			truth[its.Entry] = its.FuncName
		}
		fmt.Printf("\ntarget %s: %d custom functions, analyzed in %s\n",
			t.Path, t.NumFuncs, res.Elapsed.Round(1e6))
		for i, c := range t.TopCandidates(5) {
			marker := ""
			if name, ok := truth[c.Entry]; ok {
				marker = "  <= planted ITS " + name
			}
			fmt.Printf("  %d. %#x  score %.4f%s\n", i+1, c.Entry, c.Score, marker)
		}
	}
}
