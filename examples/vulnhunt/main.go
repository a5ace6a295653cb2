// Vulnhunt: the end-to-end vulnerability workflow of the paper's RQ2 on one
// firmware sample — run the static engine with classical sources only, then
// again with inferred intermediate sources, and diff what each finds against
// the generator's ground truth.
package main

import (
	"fmt"
	"log"

	"fits"
	"fits/internal/synth"
)

func main() {
	log.SetFlags(0)

	// A Tenda-profile sample: many planted bugs at graded call depths.
	var spec synth.SampleSpec
	for _, s := range synth.Dataset() {
		if s.Vendor == "Tenda" && !s.Latest && s.FailureMode == "" {
			spec = s
			break
		}
	}
	sample, err := synth.Generate(spec)
	if err != nil {
		log.Fatal(err)
	}
	man := sample.Manifest
	fmt.Printf("firmware: %s %s — %d planted bugs\n", man.Vendor, man.Product, man.TrueBugs())

	res, err := fits.Analyze(sample.Packed, fits.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	target := res.Targets[0]

	classify := func(alerts []fits.Alert) (tp, fp int) {
		var tally synth.Tally
		for _, a := range alerts {
			tally.Add(man.Match(target.Binary, a.Func, a.Sink))
		}
		return len(tally.Found), tally.FP
	}

	// Pass 1: classical sources only.
	ctsAlerts, err := target.Scan(fits.ScanOptions{Engine: fits.EngineStatic, StringFilter: true})
	if err != nil {
		log.Fatal(err)
	}
	tp, fp := classify(ctsAlerts)
	fmt.Printf("\nSTA with classical sources:     %2d alerts (%d bugs, %d false positives)\n",
		len(ctsAlerts), tp, fp)

	// Pass 2: seed the verified top-3 inferred sources.
	var its []uint32
	for _, c := range target.TopCandidates(3) {
		if man.IsITS(target.Binary, c.Entry) { // "manual verification" via the manifest oracle
			its = append(its, c.Entry)
		}
	}
	fmt.Printf("verified ITSs in top-3: %d\n", len(its))

	itsAlerts, err := target.Scan(fits.ScanOptions{
		Engine: fits.EngineStatic, ITS: its, StringFilter: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	tp2, fp2 := classify(itsAlerts)
	fmt.Printf("STA with intermediate sources:  %2d alerts (%d bugs, %d false positives)\n",
		len(itsAlerts), tp2, fp2)
	fmt.Printf("\nITSs surfaced %d additional bugs on this firmware.\n", tp2-tp)

	for _, a := range itsAlerts {
		status := "FP"
		detail := ""
		if h, ok := man.Handler(target.Binary, a.Func, a.Sink); ok {
			detail = " " + h.Category.String()
			if v, _ := man.Match(target.Binary, a.Func, a.Sink); v == synth.PlantedVulnerable {
				status = "BUG"
				detail += " key=" + h.Key
			}
		}
		fmt.Printf("  [%s] %s at %#x via %s%s\n", status, a.Sink, a.Site, a.Source, detail)
	}
}
