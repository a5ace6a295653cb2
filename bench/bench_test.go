package bench

import (
	"context"
	"reflect"
	"testing"
	"time"
)

// TestWorkloads runs every workload small at seed 1, untraced and traced,
// and once at seed 2. Every op must pass its check, every declared metric
// must be printed with its declared unit, equal seeds must give equal
// inputs and quality, and different seeds different inputs.
func TestWorkloads(t *testing.T) {
	spec, err := LoadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	run := func(t *testing.T, workload string, seed int64, trace bool) *Result {
		t.Helper()
		res, err := Run(context.Background(), Config{
			Workload: workload, Seed: seed, Duration: 200 * time.Millisecond,
			Trace: trace, Spec: spec, WorkDir: t.TempDir(), Small: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Detail["error_pct"] != 0 {
			t.Fatalf("seed %d trace=%t: %d of %d ops failed", seed, trace, res.Failed, res.Attempted)
		}
		declared := spec.EndToEnd
		if trace {
			declared = spec.PerLayer
		}
		if len(res.Metrics) != len(declared) {
			t.Errorf("trace=%t: %d metrics printed, %d declared", trace, len(res.Metrics), len(declared))
		}
		for _, d := range declared {
			if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("trace=%t: metric %s printed as %+v, declared in %s", trace, d.Name, m, d.Unit)
			}
		}
		return res
	}
	for _, wl := range spec.Workloads {
		t.Run(wl.Name, func(t *testing.T) {
			plain := run(t, wl.Name, 1, false)
			traced := run(t, wl.Name, 1, true)
			if plain.InputDigest != traced.InputDigest {
				t.Error("seed 1 gave different inputs on two runs")
			}
			for _, q := range []string{"recall_pct", "precision_pct"} {
				if plain.Metrics[q].Value == 0 {
					t.Errorf("%s is 0", q)
				}
			}
			// Peak RSS is a diagnostic that varies between runs.
			delete(plain.Detail, "peak_rss_mb")
			delete(traced.Detail, "peak_rss_mb")
			if !reflect.DeepEqual(plain.Detail, traced.Detail) {
				t.Errorf("seed 1 gave different quality on two runs: %v vs %v", plain.Detail, traced.Detail)
			}
			if cov := traced.Metrics["trace.coverage_pct"].Value; wl.Name == "cold-image" && cov < 90 {
				t.Errorf("trace.coverage_pct = %.1f, want at least 90", cov)
			}
			if other := run(t, wl.Name, 2, false); other.InputDigest == plain.InputDigest {
				t.Error("seeds 1 and 2 gave the same inputs")
			}
		})
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(values, n=4), which the spread check uses.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{4, 8}, [3]float64{3, 6, 9}},
	} {
		if got := quartiles(tc.in); got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestCompareVerdicts checks each verdict on synthetic result sets.
func TestCompareVerdicts(t *testing.T) {
	m := MetricSpec{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1}
	spec := &Spec{EndToEnd: []MetricSpec{m}}
	side := func(values ...float64) map[string]map[int64]*Result {
		rs := map[int64]*Result{}
		for i, v := range values {
			rs[int64(i+1)] = &Result{Workload: "w", Seed: int64(i + 1),
				Metrics: map[string]Metric{m.Name: {Value: v, Unit: "ms"}}}
		}
		return map[string]map[int64]*Result{"w": rs}
	}
	base := side(100, 101, 99, 100, 102, 98, 100, 101, 99, 100)
	for _, tc := range []struct {
		name string
		head map[string]map[int64]*Result
		want string
	}{
		{"faster", side(90, 91, 89, 90, 92, 88, 90, 91, 89, 90), Better},
		{"same", side(100, 101, 99, 100, 102, 98, 100, 101, 99, 100), Within},
		{"slower", side(120, 121, 119, 120, 122, 118, 120, 121, 119, 120), Worse},
		{"noisy", side(60, 140, 70, 130, 80, 120, 90, 110, 100, 100), Unresolved},
	} {
		vs := Compare(spec, base, tc.head)
		if len(vs) != 1 || vs[0].Verdict != tc.want {
			t.Errorf("%s: verdicts %+v, want %s", tc.name, vs, tc.want)
		}
	}
}
