package stagetime

import (
	"sync"
	"testing"
)

func TestNilTimerIsNoop(t *testing.T) {
	var tm *Timer
	tm.Span(Infer)()
	Open(nil, Infer)()
	Open(tm, Infer)()
	if tm.WallNanos(Infer) != 0 || tm.Allocs(Infer) != 0 {
		t.Error("nil timer accumulated")
	}
	if n := testing.AllocsPerRun(100, func() { Open(nil, Lift)(); Open(tm, Lift)() }); n != 0 {
		t.Errorf("a nil probe allocated %.0f objects per span", n)
	}
}

// TestAccumulation: spans of one stage add up, and the accessors report
// self numbers — a stage minus its nested stages, never minus a sibling.
func TestAccumulation(t *testing.T) {
	var tm Timer
	tm.Span(Decode)()
	first := tm.WallNanos(Decode)
	tm.Span(Decode)()
	if first <= 0 || tm.WallNanos(Decode) <= first {
		t.Errorf("decode wall = %d after one span, %d after two; want it to grow", first, tm.WallNanos(Decode))
	}

	var nested Timer
	nested.wall[CFG].Store(10)
	nested.wall[Lift].Store(4)
	nested.wall[Infer].Store(5)
	nested.allocs[Taint].Store(9)
	nested.allocs[Alias].Store(2)
	nested.allocs[PathCheck].Store(3)
	for _, c := range []struct {
		what      string
		got, want int64
	}{
		{"cfg self time", nested.WallNanos(CFG), 6},
		{"lift self time", nested.WallNanos(Lift), 4},
		{"infer self time", nested.WallNanos(Infer), 5},
		{"taint self allocs", nested.Allocs(Taint), 4},
		{"pathcheck self allocs", nested.Allocs(PathCheck), 3},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, want %d", c.what, c.got, c.want)
		}
	}
}

var sink []*[64]byte

func TestSpanRecordsWallAndAllocs(t *testing.T) {
	var tm Timer
	done := tm.Span(Infer)
	// Enough escaping allocations to overcome the per-P counter batching
	// the runtime applies before a metrics.Read flush.
	sink = sink[:0]
	for i := 0; i < 4096; i++ {
		sink = append(sink, new([64]byte))
	}
	done()
	if tm.WallNanos(Infer) <= 0 {
		t.Error("span recorded no wall time")
	}
	if tm.Allocs(Infer) <= 0 {
		t.Error("span recorded no allocations")
	}
}

func TestStageNames(t *testing.T) {
	want := []string{"decode", "lift", "cfg", "reachdef", "infer", "taint", "alias", "pathcheck"}
	stages := Stages()
	if len(stages) != len(want) {
		t.Fatalf("%d stages, want %d", len(stages), len(want))
	}
	for i, s := range stages {
		if s.String() != want[i] {
			t.Errorf("stage %d = %q, want %q", i, s, want[i])
		}
	}
	if NumStages.String() != "stage" {
		t.Errorf("out-of-range String() = %q", NumStages.String())
	}
}

// TestTimerConcurrent: goroutines sharing a Timer, each nesting child spans
// inside a parent span, leave every self number non-negative.
func TestTimerConcurrent(t *testing.T) {
	var tm Timer
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				done := tm.Span(Taint)
				tm.Span(Alias)()
				tm.Span(PathCheck)()
				done()
			}
		}()
	}
	wg.Wait()
	for _, s := range Stages() {
		if tm.WallNanos(s) < 0 || tm.Allocs(s) < 0 {
			t.Errorf("stage %s: self time %d, self allocs %d; want both >= 0", s, tm.WallNanos(s), tm.Allocs(s))
		}
	}
	if tm.WallNanos(Alias) <= 0 || tm.WallNanos(Taint) <= 0 {
		t.Errorf("taint=%d alias=%d, want both > 0", tm.WallNanos(Taint), tm.WallNanos(Alias))
	}
}
