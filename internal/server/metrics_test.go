package server

import (
	"strings"
	"sync"
	"testing"
)

func TestRegistryRendering(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("b_total", "A counter.")
	g := r.Gauge("a_gauge", "A gauge.")
	r.GaugeFunc("c_dynamic", "A callback gauge.", func() float64 { return 2.5 })
	c.Add(3)
	g.Add(-7)
	var sb strings.Builder
	r.WriteText(&sb)
	out := sb.String()
	for _, want := range []string{
		"# HELP a_gauge A gauge.\n# TYPE a_gauge gauge\na_gauge -7\n",
		"# TYPE b_total counter\nb_total 3\n",
		"c_dynamic 2.5\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	// Sorted name order makes scrapes deterministic.
	if strings.Index(out, "a_gauge") > strings.Index(out, "b_total") ||
		strings.Index(out, "b_total") > strings.Index(out, "c_dynamic") {
		t.Errorf("metrics not sorted:\n%s", out)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "Latency.", 0.1, 1, 10)
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	var sb strings.Builder
	r.WriteText(&sb)
	out := sb.String()
	for _, want := range []string{
		`lat_seconds_bucket{le="0.1"} 1`,
		`lat_seconds_bucket{le="1"} 3`,
		`lat_seconds_bucket{le="10"} 4`,
		`lat_seconds_bucket{le="+Inf"} 5`,
		`lat_seconds_count 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if h.count != 5 {
		t.Errorf("count = %d", h.count)
	}
}

func TestHistogramBoundaryGoesToLowerBucket(t *testing.T) {
	h := NewHistogram(1)
	h.Observe(1) // le="1" is inclusive, Prometheus-style
	if h.buckets[0] != 1 || h.buckets[1] != 0 {
		t.Errorf("buckets = %v", h.buckets)
	}
}

func TestCountersConcurrent(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x_total", "x")
	g := r.Gauge("y", "y")
	h := r.Histogram("z", "z", 1, 2)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 1000; k++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(1.5)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 || g.Value() != 0 || h.count != 8000 {
		t.Errorf("c=%d g=%d h=%d", c.Value(), g.Value(), h.count)
	}
}

func TestDuplicateMetricPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate registration did not panic")
		}
	}()
	r := NewRegistry()
	r.Counter("dup", "x")
	r.Counter("dup", "y")
}
