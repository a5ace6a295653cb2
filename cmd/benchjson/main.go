// Command benchjson converts `go test -bench` output on stdin into a JSON
// report on stdout, so CI can archive benchmark numbers (ns/op, allocs/op,
// custom metrics such as cache-hit-%) without extra tooling, and compares
// two archived reports so CI can fail on performance regressions.
//
// Usage:
//
//	go test -run='^$' -bench=Pipeline -benchtime=20x -count=5 -benchmem . | benchjson > BENCH_pipeline.json
//	benchjson -compare BENCH_pipeline.json BENCH_new.json -tolerance 25
//
// A benchmark reported on several lines (go test -count=N) is folded into
// one entry holding each metric's median, before the report is written or
// compared: one noisy run then moves the archive and the gate no more than
// any other.
//
// Conversion refuses single-iteration samples: with -benchtime=1x one GC
// pause or cache-cold run lands verbatim in the archive and every later
// comparison inherits the noise. Re-run with -benchtime=20x (or more).
//
// Compare mode checks every benchmark present in both reports and exits
// nonzero if new ns/op, B/op or allocs/op exceeds old by more than the
// tolerance percentage. When the two reports' cpu fields differ the numbers are not
// comparable as a gate — regressions are still printed, but as warnings.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strconv"
	"strings"
)

// Benchmark is one parsed result line.
type Benchmark struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"` // unit -> value, e.g. "ns/op", "allocs/op"
}

// Report is the whole document, with the run's environment header.
type Report struct {
	Goos       string      `json:"goos,omitempty"`
	Goarch     string      `json:"goarch,omitempty"`
	Pkg        string      `json:"pkg,omitempty"`
	CPU        string      `json:"cpu,omitempty"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchjson: ")
	compareMode := flag.Bool("compare", false, "compare two report files instead of converting stdin")
	tolerance := flag.Float64("tolerance", 25, "regression tolerance in percent (compare mode)")
	flag.Parse()
	if *compareMode {
		oldPath, newPath, tol := compareArgs(flag.Args(), *tolerance)
		if err := compareFiles(oldPath, newPath, tol); err != nil {
			log.Fatal(err)
		}
		return
	}
	if flag.NArg() != 0 {
		log.Fatal("usage: benchjson < bench.out  |  benchjson -compare old.json new.json [-tolerance pct]")
	}
	rep, err := parse(bufio.NewScanner(os.Stdin))
	if err != nil {
		log.Fatal(err)
	}
	if len(rep.Benchmarks) == 0 {
		log.Fatal("no benchmark lines found on stdin")
	}
	if bad := singleIteration(rep); len(bad) > 0 {
		log.Fatalf("refusing single-iteration samples (one GC pause would be archived as truth): %s; re-run with -benchtime=20x or more",
			strings.Join(bad, ", "))
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		log.Fatal(err)
	}
}

// singleIteration lists benchmarks whose sample is a single iteration.
func singleIteration(rep *Report) []string {
	var bad []string
	for _, b := range rep.Benchmarks {
		if b.Iterations == 1 {
			bad = append(bad, b.Name)
		}
	}
	return bad
}

// compareArgs resolves compare-mode positionals, tolerating a trailing
// `-tolerance N` after the file names (the flag package stops parsing at
// the first positional, and both orders read naturally in a Makefile).
func compareArgs(args []string, tol float64) (oldPath, newPath string, tolerance float64) {
	tolerance = tol
	var files []string
	for i := 0; i < len(args); i++ {
		if (args[i] == "-tolerance" || args[i] == "--tolerance") && i+1 < len(args) {
			v, err := strconv.ParseFloat(args[i+1], 64)
			if err != nil {
				log.Fatalf("invalid -tolerance %q", args[i+1])
			}
			tolerance = v
			i++
			continue
		}
		files = append(files, args[i])
	}
	if len(files) != 2 {
		log.Fatal("usage: benchjson -compare old.json new.json [-tolerance pct]")
	}
	return files[0], files[1], tolerance
}

// gatedUnits are the metrics compare mode treats as regressions when they
// grow; other units (cache-hit-%, stage breakdowns) are informational.
var gatedUnits = []string{"ns/op", "B/op", "allocs/op"}

// compareFiles loads two reports and gates new against old. A non-nil error
// means the gate failed (regression beyond tolerance on comparable hosts).
func compareFiles(oldPath, newPath string, tolerance float64) error {
	old, err := loadReport(oldPath)
	if err != nil {
		return err
	}
	cur, err := loadReport(newPath)
	if err != nil {
		return err
	}
	regs := regressions(old, cur, tolerance)
	if len(regs) == 0 {
		log.Printf("ok: no metric grew more than %g%% (%s vs %s)", tolerance, newPath, oldPath)
		return nil
	}
	if old.CPU != cur.CPU {
		log.Printf("warning: cpu differs (%q vs %q); numbers are not comparable, reporting without failing:", old.CPU, cur.CPU)
		for _, r := range regs {
			log.Print("  " + r)
		}
		return nil
	}
	for _, r := range regs {
		log.Print("  " + r)
	}
	return fmt.Errorf("%d metric(s) regressed more than %g%%", len(regs), tolerance)
}

// regressions lists every gated metric of a benchmark present in both
// reports whose new value exceeds the old by more than tolerance percent.
func regressions(old, cur *Report, tolerance float64) []string {
	prev := make(map[string]Benchmark, len(old.Benchmarks))
	for _, b := range old.Benchmarks {
		prev[b.Name] = b
	}
	var regs []string
	for _, b := range cur.Benchmarks {
		base, ok := prev[b.Name]
		if !ok {
			continue // new benchmark: nothing to gate against
		}
		for _, unit := range gatedUnits {
			ov, haveOld := base.Metrics[unit]
			nv, haveNew := b.Metrics[unit]
			if !haveOld || !haveNew || ov <= 0 {
				continue
			}
			if growth := 100 * (nv - ov) / ov; growth > tolerance {
				regs = append(regs, fmt.Sprintf("%s %s: %.0f -> %.0f (+%.1f%%)", b.Name, unit, ov, nv, growth))
			}
		}
	}
	sort.Strings(regs)
	return regs
}

func loadReport(path string) (*Report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rep Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	rep.Benchmarks = medians(rep.Benchmarks)
	return &rep, nil
}

func parse(sc *bufio.Scanner) (*Report, error) {
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	rep := &Report{}
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos: "):
			rep.Goos = strings.TrimPrefix(line, "goos: ")
		case strings.HasPrefix(line, "goarch: "):
			rep.Goarch = strings.TrimPrefix(line, "goarch: ")
		case strings.HasPrefix(line, "pkg: "):
			rep.Pkg = strings.TrimPrefix(line, "pkg: ")
		case strings.HasPrefix(line, "cpu: "):
			rep.CPU = strings.TrimPrefix(line, "cpu: ")
		case strings.HasPrefix(line, "Benchmark"):
			if b := parseLine(line); b != nil {
				rep.Benchmarks = append(rep.Benchmarks, *b)
			}
		}
	}
	rep.Benchmarks = medians(rep.Benchmarks)
	return rep, sc.Err()
}

// medians folds repeated entries of one benchmark into a single entry, in
// first-seen order, whose iterations and every metric are the median over
// the entries reporting it (the mean of the middle two for an even count).
func medians(benches []Benchmark) []Benchmark {
	runs := map[string][]Benchmark{}
	var order []string
	for _, b := range benches {
		if _, seen := runs[b.Name]; !seen {
			order = append(order, b.Name)
		}
		runs[b.Name] = append(runs[b.Name], b)
	}
	out := make([]Benchmark, 0, len(order))
	for _, name := range order {
		rs := runs[name]
		iters := make([]float64, len(rs))
		samples := map[string][]float64{}
		for i, r := range rs {
			iters[i] = float64(r.Iterations)
			for unit, v := range r.Metrics {
				samples[unit] = append(samples[unit], v)
			}
		}
		b := Benchmark{Name: name, Iterations: int64(median(iters)), Metrics: make(map[string]float64, len(samples))}
		for unit, vs := range samples {
			b.Metrics[unit] = median(vs)
		}
		out = append(out, b)
	}
	return out
}

// median returns the median of a non-empty sample, sorting it in place.
func median(vs []float64) float64 {
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// parseLine parses a result line of the form
//
//	BenchmarkName-8   2   9120354 ns/op   66.67 cache-hit-%   6727568 B/op   4429 allocs/op
//
// Lines that merely start with "Benchmark" but carry no measurements (e.g. a
// sub-benchmark group header) are skipped by returning nil.
//
// Optional metrics are best-effort: a run may legitimately omit some (a
// cold-only run reports no cache-hit line) or emit a truncated pair, and
// archiving the metrics that did parse beats failing the bench-smoke step,
// so stray tokens are warned about on stderr and dropped.
func parseLine(line string) *Benchmark {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return nil
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return nil // "BenchmarkFoo" used as a prose word, not a result line
	}
	b := &Benchmark{
		Name:       trimMaxprocs(fields[0]),
		Iterations: iters,
		Metrics:    make(map[string]float64, (len(fields)-2)/2),
	}
	for i := 2; i < len(fields); {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil || i+1 >= len(fields) {
			log.Printf("ignoring stray token %q in %s result line", fields[i], b.Name)
			i++
			continue
		}
		b.Metrics[fields[i+1]] = v
		i += 2
	}
	return b
}

// trimMaxprocs strips the numeric -N GOMAXPROCS suffix `go test` appends to
// benchmark names; names without one pass through unchanged.
func trimMaxprocs(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if n, err := strconv.Atoi(name[i+1:]); err != nil || n <= 0 {
		return name
	}
	return name[:i]
}
