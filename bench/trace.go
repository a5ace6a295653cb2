package bench

import (
	"runtime"
	"time"

	"fits/internal/binimg"
	"fits/internal/cfg"
	"fits/internal/firmware"
	"fits/internal/ucse"
)

// Span is one timed interval of a traced op. An op span has Parent -1; a
// layer span's parent is its op span. Self time is a span's duration minus
// the durations of its children.
type Span struct {
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
	// Alloc is the process's allocated bytes over the span; 0 for spans
	// derived from timestamps the program reported.
	Alloc uint64 `json:"alloc_bytes"`
}

// opSpan names the span covering a whole traced op.
const opSpan = "op"

// tracer keeps the spans of a traced run in memory. It also keeps the
// wall time of each traced op's untraced partner and the unit costs timed
// outside the partition.
type tracer struct {
	epoch    time.Time
	spans    []Span
	untraced []float64 // ms
	pairs    int

	decodeNs, decodeBytes int64
	buildNs, buildFuncs   int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// begin opens a span and returns its index; parent is -1 for an op span.
func (t *tracer) begin(op, parent int, name string) int {
	t.spans = append(t.spans, Span{Op: op, Name: name, Parent: parent,
		Start: time.Since(t.epoch).Nanoseconds(), Alloc: totalAlloc()})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	s := &t.spans[i]
	s.End = time.Since(t.epoch).Nanoseconds()
	s.Alloc = totalAlloc() - s.Alloc
}

// add records a span from timestamps taken elsewhere and returns its index.
func (t *tracer) add(op, parent int, name string, start, end time.Time) int {
	t.spans = append(t.spans, Span{Op: op, Name: name, Parent: parent,
		Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds()})
	return len(t.spans) - 1
}

// addSeq lays durations the program reported end to end from start, as
// consecutive child spans of op span parent.
func (t *tracer) addSeq(op, parent int, start time.Time, names []string, durs []time.Duration) {
	for i, name := range names {
		t.add(op, parent, name, start, start.Add(durs[i]))
		start = start.Add(durs[i])
	}
}

// pair records the untraced partner of a traced op.
func (t *tracer) pair(untraced time.Duration) {
	t.pairs++
	t.untraced = append(t.untraced, ms(untraced))
}

// unitCosts times binimg.Decode per KB and cfg.Build (with the ucse
// resolvers the loader uses) per function on an op's binaries, outside
// the op's partition.
func (t *tracer) unitCosts(files []firmware.File) error {
	for _, f := range files {
		if !binimg.IsBinary(f.Data) {
			continue
		}
		start := time.Now()
		b, err := binimg.Decode(f.Data)
		t.decodeNs += time.Since(start).Nanoseconds()
		t.decodeBytes += int64(len(f.Data))
		if err != nil {
			return err
		}
		start = time.Now()
		m, err := cfg.Build(b, cfg.Options{Resolver: ucse.Resolver(), JumpResolver: ucse.JumpResolver()})
		t.buildNs += time.Since(start).Nanoseconds()
		if err != nil {
			return err
		}
		t.buildFuncs += int64(len(m.FuncsInOrder()))
	}
	return nil
}

// allocMetrics maps the per-layer allocation metrics to their spans.
var allocMetrics = map[string]string{
	"loader.alloc_mb":    "loader.load",
	"infer.bfv_alloc_mb": "infer.bfv",
	"taint.alloc_mb":     "taint.run",
}

// metrics derives the span metrics: each layer's share of the traced op
// time (self time over op wall, as "<span>_pct"), the coverage of the
// partition, the tracing overhead (median traced op against median
// untraced partner), per-layer allocation and unit costs.
func (t *tracer) metrics() map[string]float64 {
	self := map[string]int64{}
	alloc := map[string]uint64{}
	var opWall []float64
	var opTotal, covered int64
	for i, s := range t.spans {
		d := s.End - s.Start
		if s.Parent < 0 {
			opWall = append(opWall, float64(d)/1e6)
			opTotal += d
			continue
		}
		for _, c := range t.spans[i+1:] {
			if c.Parent == i {
				d -= c.End - c.Start
			}
		}
		self[s.Name] += d
		alloc[s.Name] += s.Alloc
		covered += d
	}
	out := map[string]float64{
		"trace.op_ms":             median(opWall),
		"trace.coverage_pct":      100 * float64(covered) / float64(max(opTotal, 1)),
		"trace.overhead_pct":      100 * (median(opWall)/median(t.untraced) - 1),
		"binimg.decode_us_per_kb": float64(t.decodeNs) / 1e3 / (float64(max(t.decodeBytes, 1)) / 1024),
		"cfg.build_us_per_func":   float64(t.buildNs) / 1e3 / float64(max(t.buildFuncs, 1)),
	}
	for name, d := range self {
		out[name+"_pct"] = 100 * float64(d) / float64(max(opTotal, 1))
	}
	ops := max(len(opWall), 1)
	for metric, span := range allocMetrics {
		if _, ok := self[span]; ok {
			out[metric] = float64(alloc[span]) / float64(ops) / 1e6
		}
	}
	return out
}
