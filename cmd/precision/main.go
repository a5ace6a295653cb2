// Command precision runs the STA precision scoreboard: it scores the alias
// and path-feasibility passes against the baseline engine on planted
// ground truth across the three synth families (single-binary,
// version-chain, multibin), prints the before/after table, and exits
// nonzero unless the full configuration scores strictly better precision
// than the baseline at no loss of recall. `make precision-smoke` wires it
// into CI.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"fits/internal/eval"
	"fits/internal/modelcache"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("precision: ")
	check := flag.Bool("check", true, "enforce the precision gate (exit nonzero on regression)")
	flag.Parse()

	rows, err := eval.RunPrecision(context.Background(), modelcache.New(0, 0))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(eval.FormatPrecision(rows))
	if *check {
		if err := eval.CheckPrecision(rows); err != nil {
			log.Fatal(err)
		}
		fmt.Println("precision gate: ok")
	}
	os.Exit(0)
}
