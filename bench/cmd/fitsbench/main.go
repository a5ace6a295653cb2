// Command fitsbench runs the repository benchmark.
//
// Usage:
//
//	fitsbench -workload <name> [-seed n] [-seconds s] [-trace 0|1] [-spans file] [-out file]
//	fitsbench -compare <base-dir> <head-dir>
//
// A run prints a human-readable report on standard error and, as the last
// line of standard output, one JSON object with the keys correct,
// attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json,
// or with -trace 1 its per-layer metrics. -out also writes the result to a
// file; -compare reads two directories of such files. Run it from the
// repository root (bench/fitsbench.sh builds and runs it).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"fits/bench"
)

func main() {
	workload := flag.String("workload", "", "workload to run (see BENCHMARK.json)")
	seed := flag.Int64("seed", 1, "seed the inputs are generated from")
	seconds := flag.Float64("seconds", 0, "length of the measured loop (0 = run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "1 adds the traced run and prints the per-layer metrics")
	spans := flag.String("spans", "", "write the traced run's spans to this file, one JSON object a line")
	out := flag.String("out", "", "also write the result to this file")
	specPath := flag.String("spec", "BENCHMARK.json", "benchmark declaration")
	workDir := flag.String("workdir", ".bench_build/work", "directory for the service's data directories")
	compare := flag.Bool("compare", false, "compare result directories: -compare <base-dir> <head-dir>")
	flag.Parse()

	spec, err := bench.LoadSpec(*specPath)
	if err != nil {
		fatal(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes <base-dir> <head-dir>"))
		}
		os.Exit(runCompare(spec, flag.Arg(0), flag.Arg(1)))
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1"))
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	if err := os.MkdirAll(*workDir, 0o755); err != nil {
		fatal(err)
	}
	// The load is fixed at two, never derived from the host.
	runtime.GOMAXPROCS(bench.Parallelism)
	res, err := bench.Run(context.Background(), bench.Config{
		Workload: *workload,
		Seed:     *seed,
		Duration: time.Duration(*seconds * float64(time.Second)),
		Trace:    *trace == 1,
		Spec:     spec,
		WorkDir:  *workDir,
		Log:      os.Stderr,
	})
	if err != nil {
		fatal(err)
	}
	if *out != "" {
		if err := writeJSON(*out, res); err != nil {
			fatal(err)
		}
	}
	if *spans != "" && res.Trace {
		if err := writeSpans(*spans, res.Spans); err != nil {
			fatal(err)
		}
	}
	line, err := json.Marshal(res.Line())
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func runCompare(spec *bench.Spec, baseDir, headDir string) int {
	base, err := bench.LoadResults(baseDir)
	if err != nil {
		fatal(err)
	}
	head, err := bench.LoadResults(headDir)
	if err != nil {
		fatal(err)
	}
	vs := bench.Compare(spec, base, head)
	bench.WriteVerdicts(os.Stdout, vs, base, head)
	for _, v := range vs {
		if v.Verdict == bench.Worse {
			return 1
		}
	}
	return 0
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func writeSpans(path string, spans []bench.Span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fitsbench:", err)
	os.Exit(1)
}
