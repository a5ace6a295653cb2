package server

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// metrics.go is a minimal Prometheus-text-format instrumentation layer:
// counters, gauges, callback gauges and one histogram shape, rendered by a
// Registry in sorted name order so /metrics output is deterministic. It
// exists because the repo takes no dependencies; the exposition format
// (https://prometheus.io/docs/instrumenting/exposition_formats/) is simple
// enough to emit directly.

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value reads the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Add moves the value by delta (negative to decrease).
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Value reads the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts observations into cumulative buckets, Prometheus-style.
type Histogram struct {
	mu      sync.Mutex
	bounds  []float64 // upper bounds, ascending; +Inf is implicit; immutable
	buckets []uint64  // len(bounds)+1, non-cumulative; guarded by mu
	sum     float64   // guarded by mu
	count   uint64    // guarded by mu
}

// NewHistogram builds a histogram over the given ascending upper bounds.
func NewHistogram(bounds ...float64) *Histogram {
	return &Histogram{bounds: bounds, buckets: make([]uint64, len(bounds)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i]++
	h.sum += v
	h.count++
}

// metric is one registered family.
type metric struct {
	name, help, typ string
	write           func(w io.Writer, name string)
}

// Registry holds registered metrics and renders them as Prometheus text.
type Registry struct {
	mu      sync.Mutex
	metrics []metric        // guarded by mu
	byName  map[string]bool // guarded by mu
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]bool{}}
}

func (r *Registry) register(name, help, typ string, write func(io.Writer, string)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.byName[name] {
		panic("server: duplicate metric " + name)
	}
	r.byName[name] = true
	r.metrics = append(r.metrics, metric{name: name, help: help, typ: typ, write: write})
}

// Counter registers and returns a counter. Counter names end in _total by
// Prometheus convention; that is up to the caller.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(name, help, "counter", func(w io.Writer, n string) {
		fmt.Fprintf(w, "%s %d\n", n, c.Value())
	})
	return c
}

// Gauge registers and returns a gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(name, help, "gauge", func(w io.Writer, n string) {
		fmt.Fprintf(w, "%s %d\n", n, g.Value())
	})
	return g
}

// CounterFunc registers a counter whose value is read at scrape time from
// an external monotonic source (e.g. cache statistics).
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(name, help, "counter", func(w io.Writer, n string) {
		fmt.Fprintf(w, "%s %s\n", n, formatFloat(fn()))
	})
}

// GaugeFunc registers a gauge whose value is computed at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, "gauge", func(w io.Writer, n string) {
		fmt.Fprintf(w, "%s %s\n", n, formatFloat(fn()))
	})
}

// Histogram registers and returns a histogram with the given upper bounds.
func (r *Registry) Histogram(name, help string, bounds ...float64) *Histogram {
	h := NewHistogram(bounds...)
	r.register(name, help, "histogram", func(w io.Writer, n string) {
		h.mu.Lock()
		defer h.mu.Unlock()
		cum := uint64(0)
		for i, b := range h.bounds {
			cum += h.buckets[i]
			fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", n, formatFloat(b), cum)
		}
		cum += h.buckets[len(h.bounds)]
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", n, cum)
		fmt.Fprintf(w, "%s_sum %s\n", n, formatFloat(h.sum))
		fmt.Fprintf(w, "%s_count %d\n", n, h.count)
	})
	return h
}

// WriteText renders every metric in sorted name order with HELP/TYPE
// comments in the Prometheus text exposition format.
func (r *Registry) WriteText(w io.Writer) {
	r.mu.Lock()
	ms := make([]metric, len(r.metrics))
	copy(ms, r.metrics)
	r.mu.Unlock()
	sort.Slice(ms, func(i, j int) bool { return ms[i].name < ms[j].name })
	for _, m := range ms {
		fmt.Fprintf(w, "# HELP %s %s\n", m.name, m.help)
		fmt.Fprintf(w, "# TYPE %s %s\n", m.name, m.typ)
		m.write(w, m.name)
	}
}

// formatFloat renders floats the way Prometheus clients do: shortest
// round-trip representation, with NaN/Inf spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsNaN(v):
		return "NaN"
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
