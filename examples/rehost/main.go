// Rehost: the Appendix-A verification workflow on one firmware — infer ITS
// candidates statically, then execute each top candidate under the
// instruction-level emulator against a planted request store to confirm
// which ones really fetch-and-return user data (and are therefore safe to
// seed as taint sources).
package main

import (
	"context"
	"fmt"
	"log"

	"fits/internal/infer"
	"fits/internal/loader"
	"fits/internal/synth"
	"fits/internal/verify"
)

func main() {
	log.SetFlags(0)

	spec := synth.Dataset()[2] // a NETGEAR sample
	sample, err := synth.Generate(spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("firmware: %s %s %s\n", spec.Vendor, spec.Product, spec.Version)

	ctx := context.Background()
	res, err := loader.LoadContext(ctx, sample.Packed, loader.Options{})
	if err != nil {
		log.Fatal(err)
	}

	truth := map[uint32]string{}
	for _, its := range sample.Manifest.ITS {
		truth[its.Entry] = its.FuncName
	}

	for _, target := range res.Targets {
		ranking, err := infer.InferTargetContext(ctx, target, infer.DefaultConfig())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s: verifying the top-5 candidates under emulation\n", target.Path)
		for i, c := range ranking.Top(5) {
			o := verify.Candidate(target.Bin, target.Model, c.Entry)
			status := "rejected"
			detail := ""
			if o.Verified {
				status = "CONFIRMED"
				detail = fmt.Sprintf(" (returned %q, taint origin %s)", o.Returned, o.TaintOrigin)
			} else if o.Err != nil {
				detail = " (" + o.Err.Error() + ")"
			}
			planted := ""
			if name, ok := truth[c.Entry]; ok {
				planted = "  <= planted ITS " + name
			}
			fmt.Printf("  %d. %#x score %.3f: %-9s%s%s\n", i+1, c.Entry, c.Score, status, detail, planted)
		}
	}

	fmt.Println("\nConfirmed candidates extract a keyed field from a caller-supplied")
	fmt.Println("store and pass it out — the behaviour that makes a taint source.")
	fmt.Println("Note the confirmed non-planted entries: configuration fetchers that")
	fmt.Println("share the capability but read system data, which only runtime")
	fmt.Println("context can tell apart (the paper's manual verification step).")
}
