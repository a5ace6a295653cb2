package main

import (
	"bufio"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: fits
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkPipeline_SingleFirmware-8 	       1	  29471234 ns/op	18068904 B/op	   98282 allocs/op
BenchmarkPipeline_SingleFirmwareCached-8 	       1	   9120354 ns/op	        66.67 cache-hit-%	 6727568 B/op	    4429 allocs/op
PASS
ok  	fits	0.458s
`

func TestParse(t *testing.T) {
	rep, err := parse(bufio.NewScanner(strings.NewReader(sampleOutput)))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Goos != "linux" || rep.Pkg != "fits" || rep.CPU == "" {
		t.Errorf("header = %+v", rep)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("got %d benchmarks, want 2", len(rep.Benchmarks))
	}
	b := rep.Benchmarks[0]
	if b.Name != "BenchmarkPipeline_SingleFirmware" {
		t.Errorf("name = %q (GOMAXPROCS suffix should be stripped)", b.Name)
	}
	if b.Iterations != 1 || b.Metrics["ns/op"] != 29471234 || b.Metrics["allocs/op"] != 98282 {
		t.Errorf("benchmark 0 = %+v", b)
	}
	c := rep.Benchmarks[1]
	if c.Metrics["cache-hit-%"] != 66.67 {
		t.Errorf("cache-hit-%% = %v, want 66.67", c.Metrics["cache-hit-%"])
	}
}

// TestParseToleratesMissingOptionalMetrics: cold-only runs carry no
// cache-hit metric and CI permutations can truncate a pair; the parser
// must keep what parsed instead of failing the bench-smoke step.
func TestParseToleratesMissingOptionalMetrics(t *testing.T) {
	in := "BenchmarkPipeline_SingleFirmware-8 \t 1 \t 123456 ns/op \t 52 B/op \t stray\n" +
		"BenchmarkPipeline_ColdOnly-8 \t 1 \t 999 ns/op\n"
	rep, err := parse(bufio.NewScanner(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 2 {
		t.Fatalf("got %d benchmarks, want 2: %+v", len(rep.Benchmarks), rep.Benchmarks)
	}
	b := rep.Benchmarks[0]
	if b.Metrics["ns/op"] != 123456 || b.Metrics["B/op"] != 52 || len(b.Metrics) != 2 {
		t.Errorf("truncated line metrics = %+v, want ns/op and B/op only", b.Metrics)
	}
	c := rep.Benchmarks[1]
	if _, ok := c.Metrics["cache-hit-%"]; ok {
		t.Errorf("cold-only run should simply lack cache-hit-%%: %+v", c.Metrics)
	}
	if c.Metrics["ns/op"] != 999 {
		t.Errorf("cold-only metrics = %+v", c.Metrics)
	}
}

func TestParseSkipsNonResultLines(t *testing.T) {
	in := "BenchmarkGroup\nBenchmarkGroup/sub-4 	 2 	 100 ns/op\n"
	rep, err := parse(bufio.NewScanner(strings.NewReader(in)))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Benchmarks) != 1 || rep.Benchmarks[0].Name != "BenchmarkGroup/sub" {
		t.Errorf("benchmarks = %+v", rep.Benchmarks)
	}
}

func report(cpu string, benches ...Benchmark) *Report {
	return &Report{Goos: "linux", Goarch: "amd64", Pkg: "fits", CPU: cpu, Benchmarks: benches}
}

func bench(name string, ns, allocs float64) Benchmark {
	return Benchmark{Name: name, Iterations: 20, Metrics: map[string]float64{"ns/op": ns, "allocs/op": allocs}}
}

func TestSingleIterationRejected(t *testing.T) {
	rep := report("cpu0",
		Benchmark{Name: "BenchmarkA", Iterations: 1, Metrics: map[string]float64{"ns/op": 1}},
		bench("BenchmarkB", 100, 10))
	bad := singleIteration(rep)
	if len(bad) != 1 || bad[0] != "BenchmarkA" {
		t.Errorf("singleIteration = %v, want [BenchmarkA]", bad)
	}
	if bad := singleIteration(report("cpu0", bench("BenchmarkB", 100, 10))); len(bad) != 0 {
		t.Errorf("multi-iteration samples flagged: %v", bad)
	}
}

func TestRegressionsGateNsAndAllocs(t *testing.T) {
	old := report("cpu0", bench("BenchmarkA", 1000, 100), bench("BenchmarkB", 1000, 100))
	cur := report("cpu0",
		bench("BenchmarkA", 1300, 100),  // +30% ns/op: regression at 25
		bench("BenchmarkB", 1200, 135),  // +20% ns ok, +35% allocs: regression
		bench("BenchmarkNew", 9e9, 9e9)) // absent from old: ignored
	regs := regressions(old, cur, 25)
	if len(regs) != 2 {
		t.Fatalf("regressions = %v, want 2", regs)
	}
	if !strings.Contains(regs[0], "BenchmarkA ns/op") || !strings.Contains(regs[1], "BenchmarkB allocs/op") {
		t.Errorf("regressions = %v", regs)
	}
	if regs := regressions(old, cur, 40); len(regs) != 0 {
		t.Errorf("at 40%% tolerance want none, got %v", regs)
	}
	// Improvements never trip the gate.
	if regs := regressions(old, report("cpu0", bench("BenchmarkA", 10, 1)), 25); len(regs) != 0 {
		t.Errorf("improvement flagged: %v", regs)
	}
}

func TestCompareArgsTrailingTolerance(t *testing.T) {
	oldPath, newPath, tol := compareArgs([]string{"old.json", "new.json", "-tolerance", "10"}, 25)
	if oldPath != "old.json" || newPath != "new.json" || tol != 10 {
		t.Errorf("got (%q, %q, %v)", oldPath, newPath, tol)
	}
	oldPath, newPath, tol = compareArgs([]string{"a", "b"}, 25)
	if oldPath != "a" || newPath != "b" || tol != 25 {
		t.Errorf("got (%q, %q, %v)", oldPath, newPath, tol)
	}
}

func TestRegressionsGateBytes(t *testing.T) {
	withBytes := func(name string, bytes float64) Benchmark {
		b := bench(name, 1000, 100)
		b.Metrics["B/op"] = bytes
		return b
	}
	old := report("cpu0", withBytes("BenchmarkA", 1000), withBytes("BenchmarkB", 1000))
	cur := report("cpu0", withBytes("BenchmarkA", 1300), withBytes("BenchmarkB", 1200))
	regs := regressions(old, cur, 25)
	if len(regs) != 1 || !strings.Contains(regs[0], "BenchmarkA B/op") {
		t.Errorf("regressions = %v, want BenchmarkA B/op only", regs)
	}
}
