// Command fwscan runs taint analysis over one or more firmware images,
// optionally seeding inferred intermediate taint sources.
//
// Usage:
//
//	fwscan firmware.fw                     # static engine, classical sources
//	fwscan -its firmware.fw                # infer ITSs first, then seed top-3
//	fwscan -engine symbolic -its firmware.fw
//	fwscan -j 8 -timeout 1m firmware.fw    # 8 workers, abort after a minute
//	fwscan -j 8 v1.fw v2.fw v3.fw          # batch: one shared worker budget
//	fwscan -cpuprofile cpu.out -its firmware.fw  # same output, plus a CPU profile
//
// With several images the batch is analyzed under one corpus scheduler, so
// model building and inference across images share a single worker budget
// and per-image output is printed in argument order, identical to running
// the images one at a time.
//
// All option plumbing is shared with cmd/fits and the fitsd service via
// internal/optbuild, so a flag here and the matching JSON job option mean
// exactly the same thing.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"fits"
	"fits/internal/optbuild"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fwscan: ")
	var spec optbuild.Spec
	spec.BindAnalyzeFlags(flag.CommandLine)
	spec.BindScanFlags(flag.CommandLine)
	var cacheCfg optbuild.CacheConfig
	cacheCfg.BindFlags(flag.CommandLine)
	verbose := flag.Bool("v", false, "print model-cache diagnostics")
	var prof optbuild.Profile
	prof.BindFlags(flag.CommandLine)
	flag.Parse()
	stopProfile, err := prof.Start()
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := stopProfile(); err != nil {
			log.Fatal(err)
		}
	}()
	if flag.NArg() < 1 {
		log.Fatal("usage: fwscan [-its] [-engine static|symbolic] [-top N] [-j N] [-timeout D] [-cache-size N] [-no-cache] [-cpuprofile file] [-v] firmware.fw [more.fw ...]")
	}
	images := make([][]byte, flag.NArg())
	for i, name := range flag.Args() {
		raw, err := os.ReadFile(name)
		if err != nil {
			log.Fatal(err)
		}
		images[i] = raw
	}
	aopts, err := spec.AnalyzeOptions(cacheCfg.New())
	if err != nil {
		log.Fatal(err)
	}

	ctx, cancel := spec.Context(context.Background())
	defer cancel()
	// One image goes straight through Analyze; a batch shares one scheduler,
	// intern table and cache across images via the corpus entry point.
	var results []*fits.Result
	if len(images) == 1 {
		res, err := fits.AnalyzeContext(ctx, images[0], aopts)
		if err != nil {
			log.Fatal(err)
		}
		results = []*fits.Result{res}
	} else {
		results, err = fits.AnalyzeCorpus(ctx, images, aopts)
		if err != nil {
			log.Fatal(err)
		}
	}
	total := 0
	for i, res := range results {
		if len(results) > 1 {
			fmt.Printf("== %s ==\n", flag.Arg(i))
		}
		fmt.Printf("%s %s %s\n", res.Vendor, res.Product, res.Version)
		if *verbose {
			s := res.Cache.Stats
			fmt.Printf("models: lifted %d, reused %d (cache: %d hits, %d misses, %d evictions, %d bytes)\n",
				res.Cache.Lifted, res.Cache.Reused, s.Hits, s.Misses, s.Evictions, s.Bytes)
		}
		for _, t := range res.Targets {
			opts, err := spec.ScanOptions(t)
			if err != nil {
				log.Fatal(err)
			}
			alerts, err := t.ScanContext(ctx, opts)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("\n%s: %d alerts\n", t.Path, len(alerts))
			for _, a := range alerts {
				fmt.Printf("  [%s] %s at %#x (in func %#x, via %s)%s\n",
					a.Kind, a.Sink, a.Site, a.Func, a.Source, degradedMark(a))
			}
			total += len(alerts)
		}
		if len(results) > 1 && i < len(results)-1 {
			fmt.Println()
		}
	}
	fmt.Printf("\n%d alerts total\n", total)
}

// degradedMark flags an alert from a function where an analysis budget
// tripped, so its precision is that of the coarser passes.
func degradedMark(a fits.Alert) string {
	if a.Degraded {
		return " [degraded]"
	}
	return ""
}
