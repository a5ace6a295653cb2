// Command fits runs intermediate-taint-source inference on a firmware image:
// it unpacks the image, selects the network binaries, and prints the ranked
// ITS candidates per binary.
//
// Usage:
//
//	fits -top 5 firmware.fw
//	fits -j 8 -timeout 30s firmware.fw  # 8 workers, abort after 30s
//	fits -unpack firmware.fw            # list the filesystem only
//	fits -cpuprofile cpu.out firmware.fw  # same output, plus a CPU profile
//	fits diff old.fw new.fw             # alert/ITS churn between versions
//	fits xscan tree/                    # cross-binary corpus taint (JSON)
//	fits -xmode its xscan tree/         # single-binary baseline mode
//
// Option plumbing is shared with cmd/fwscan and fitsd via
// internal/optbuild.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"fits"
	"fits/internal/firmware"
	"fits/internal/optbuild"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fits: ")
	var spec optbuild.Spec
	spec.BindAnalyzeFlags(flag.CommandLine)
	var cacheCfg optbuild.CacheConfig
	cacheCfg.BindFlags(flag.CommandLine)
	unpackOnly := flag.Bool("unpack", false, "only unpack and list the filesystem")
	flag.StringVar(&spec.XMode, "xmode", "cross", "corpus seeding mode for xscan: cts, its or cross")
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
	if flag.NArg() == 3 && flag.Arg(0) == "diff" {
		runDiff(spec, cacheCfg, flag.Arg(1), flag.Arg(2))
		return
	}
	if flag.NArg() == 2 && flag.Arg(0) == "xscan" {
		runXScan(spec, cacheCfg, flag.Arg(1))
		return
	}
	if flag.NArg() != 1 {
		log.Fatal("usage: fits [-top N] [-j N] [-timeout D] [-cache-size N] [-no-cache] [-cpuprofile file] [-unpack] firmware.fw\n" +
			"       fits diff old.fw new.fw\n" +
			"       fits [-xmode cts|its|cross] xscan corpus-dir/")
	}
	raw, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}

	if *unpackOnly {
		img, err := firmware.Unpack(raw)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s %s %s (encoding: %s)\n", img.Vendor, img.Product, img.Version, firmware.DetectScheme(raw))
		for _, f := range img.Files {
			fmt.Printf("  %-30s %8d bytes\n", f.Path, len(f.Data))
		}
		return
	}

	aopts, err := spec.AnalyzeOptions(cacheCfg.New())
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := spec.Context(context.Background())
	defer cancel()
	res, err := fits.AnalyzeContext(ctx, raw, aopts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s %s %s — analyzed in %s\n", res.Vendor, res.Product, res.Version, res.Elapsed.Round(1e6))
	for _, t := range res.Targets {
		fmt.Printf("\n%s (%s): %d custom functions\n", t.Path, t.Binary, t.NumFuncs)
		for i, c := range t.TopCandidates(spec.TopK) {
			fmt.Printf("  %d. %#x  score %.4f\n", i+1, c.Entry, c.Score)
		}
	}
}

// runXScan analyzes an unpacked firmware tree as one corpus and prints the
// report as JSON. The output is byte-identical across worker counts and
// cache temperature.
func runXScan(spec optbuild.Spec, cacheCfg optbuild.CacheConfig, dir string) {
	files, err := fits.ReadCorpusDir(dir)
	if err != nil {
		log.Fatal(err)
	}
	xopts, err := spec.XScanOptions(cacheCfg.New())
	if err != nil {
		log.Fatal(err)
	}
	xopts.Progress = func(msg string) { fmt.Fprintln(os.Stderr, "xscan: "+msg) }
	ctx, cancel := spec.Context(context.Background())
	defer cancel()
	rep, err := fits.XScanContext(ctx, files, xopts)
	if err != nil {
		log.Fatal(err)
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(string(out))
}

// runDiff analyzes two versions of an image incrementally and prints the
// alert and taint-source churn between them.
func runDiff(spec optbuild.Spec, cacheCfg optbuild.CacheConfig, oldPath, newPath string) {
	oldRaw, err := os.ReadFile(oldPath)
	if err != nil {
		log.Fatal(err)
	}
	newRaw, err := os.ReadFile(newPath)
	if err != nil {
		log.Fatal(err)
	}
	dopts, err := spec.DiffOptions(cacheCfg.New())
	if err != nil {
		log.Fatal(err)
	}
	ctx, cancel := spec.Context(context.Background())
	defer cancel()
	d, err := fits.DiffContext(ctx, oldRaw, newRaw, dopts)
	if err != nil {
		log.Fatal(err)
	}
	r := d.Report
	fmt.Printf("%s %s: %s -> %s — diffed in %s\n",
		d.New.Vendor, d.New.Product, d.Old.Version, d.New.Version, d.Elapsed.Round(1e6))
	fmt.Printf("functions reused: %d/%d (%.1f%%)\n", r.ReusedFuncs, r.TotalFuncs, 100*r.ReuseRatio)
	fmt.Printf("alerts:  %d appeared, %d fixed, %d persisted\n", r.AlertsAppeared, r.AlertsFixed, r.AlertsPersisted)
	fmt.Printf("sources: %d appeared, %d fixed, %d persisted\n", r.ITSAppeared, r.ITSFixed, r.ITSPersisted)
	for _, td := range r.Targets {
		if len(td.Appeared)+len(td.Fixed)+len(td.Renames) == 0 {
			continue
		}
		fmt.Printf("\n%s\n", td.Path)
		for _, a := range td.Appeared {
			fmt.Printf("  + %s %s at %#x (func %#x), source %s\n", a.Kind, a.Sink, a.Site, a.Func, a.Source)
		}
		for _, a := range td.Fixed {
			fmt.Printf("  - %s %s at %#x (func %#x), source %s\n", a.Kind, a.Sink, a.Site, a.Func, a.Source)
		}
		for _, rn := range td.Renames {
			fmt.Printf("  ~ %s renamed to %s (similarity %.3f)\n", rn.OldName, rn.NewName, rn.Similarity)
		}
	}
}
