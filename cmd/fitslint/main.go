// Command fitslint is the repo's invariant checker: a multichecker that
// runs every analyzer registered in internal/lint over the given package
// patterns and exits non-zero on findings. `make lint` wires it into the
// CI chain.
//
// Usage:
//
//	fitslint [-analyzers] [packages ...]   # default pattern ./...
//
// Findings print as file:line:col: message (analyzer). Suppress a
// deliberate violation with `//fitslint:ignore <analyzer> <reason>` on the
// flagged line or the line above it.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"fits/internal/lint"
	"fits/internal/lint/loader"
)

func main() {
	listOnly := flag.Bool("analyzers", false, "list the registered analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: fitslint [-analyzers] [packages ...]\n\nAnalyzers:\n")
		for _, a := range lint.Analyzers() {
			fmt.Fprintf(os.Stderr, "  %-10s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()
	if *listOnly {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-10s %s\n", a.Name, a.Doc)
		}
		return
	}

	cwd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	pkgs, err := loader.Load(cwd, flag.Args()...)
	if err != nil {
		fatal(err)
	}
	// testonly counts references across the whole module and the modules
	// nested in it (bench/), whichever packages the patterns select.
	callers, err := loader.LoadNested(cwd)
	if err == nil && len(flag.Args()) > 0 {
		var whole []*loader.Package
		whole, err = loader.Load(cwd)
		callers = append(callers, whole...)
	}
	if err != nil {
		fatal(err)
	}
	diags, err := lint.Run(pkgs, callers)
	if err != nil {
		fatal(err)
	}
	for _, d := range diags {
		file := d.Pos.Filename
		if rel, err := filepath.Rel(cwd, file); err == nil {
			file = rel
		}
		fmt.Printf("%s:%d:%d: %s (%s)\n", file, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "fitslint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fitslint:", err)
	os.Exit(1)
}
