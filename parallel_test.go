package fits

// Tests for the parallel pipeline's contract: results are bit-for-bit
// identical at every worker count, cancellation is prompt at target and
// function granularity, and no goroutines outlive an AnalyzeContext call.

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// comparableResult strips the fields that legitimately vary between runs
// (wall-clock time, internal loader handles) so runs can be deep-compared.
type comparableResult struct {
	Vendor, Product, Version string
	Targets                  []comparableTarget
}

type comparableTarget struct {
	Path       string
	Binary     string
	NumFuncs   int
	Candidates []Candidate
}

func normalize(res *Result) comparableResult {
	out := comparableResult{Vendor: res.Vendor, Product: res.Product, Version: res.Version}
	for _, t := range res.Targets {
		out.Targets = append(out.Targets, comparableTarget{
			Path: t.Path, Binary: t.Binary, NumFuncs: t.NumFuncs,
			Candidates: append([]Candidate(nil), t.Candidates...),
		})
	}
	return out
}

// TestAnalyzeDeterministicAcrossParallelism asserts the full Result —
// targets, candidate order, scores — and the subsequent Scan alerts are
// deep-equal at parallelism 1, 2 and 8, and with a stage Timer attached.
func TestAnalyzeDeterministicAcrossParallelism(t *testing.T) {
	// Sample 42 (Tenda) has many planted bugs, and NETGEAR samples carry a
	// second network binary, exercising multi-target assembly order.
	for _, idx := range []int{0, 42} {
		s := sample(t, idx)
		var base comparableResult
		var baseAlerts [][]Alert
		for _, run := range []struct {
			workers int
			timed   bool
		}{{1, false}, {2, false}, {8, false}, {8, true}} {
			workers := run.workers
			opts := DefaultOptions()
			opts.Parallelism = workers
			if run.timed {
				opts.Stages = new(StageTimer)
			}
			res, err := AnalyzeContext(context.Background(), s.Packed, opts)
			if err != nil {
				t.Fatalf("sample %d workers=%d: %v", idx, workers, err)
			}
			got := normalize(res)
			var alerts [][]Alert
			for _, tgt := range res.Targets {
				var its []uint32
				for _, c := range tgt.TopCandidates(3) {
					its = append(its, c.Entry)
				}
				a, err := tgt.Scan(ScanOptions{Engine: EngineStatic, ITS: its, StringFilter: true})
				if err != nil {
					t.Fatalf("sample %d workers=%d scan: %v", idx, workers, err)
				}
				alerts = append(alerts, a)
			}
			if workers == 1 {
				base, baseAlerts = got, alerts
				continue
			}
			if !reflect.DeepEqual(got, base) {
				t.Errorf("sample %d: result at parallelism %d (timer %v) differs from serial run\nserial: %+v\ngot:    %+v",
					idx, workers, run.timed, base, got)
			}
			if !reflect.DeepEqual(alerts, baseAlerts) {
				t.Errorf("sample %d: alerts at parallelism %d (timer %v) differ from serial run", idx, workers, run.timed)
			}
		}
	}
}

// TestAnalyzeContextPreCancelled asserts an already-cancelled context
// returns promptly with ctx.Err() and leaks no goroutines.
func TestAnalyzeContextPreCancelled(t *testing.T) {
	s := sample(t, 0)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	res, err := AnalyzeContext(ctx, s.Packed, DefaultOptions())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Error("cancelled analysis returned a result")
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("cancelled analysis took %s", d)
	}
	assertNoGoroutineLeak(t, before)
}

// TestAnalyzeContextDeadline asserts an expired deadline aborts mid-flight
// with DeadlineExceeded and leaks no goroutines.
func TestAnalyzeContextDeadline(t *testing.T) {
	s := sample(t, 0)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), time.Microsecond)
	defer cancel()
	time.Sleep(time.Millisecond) // let the deadline pass
	_, err := AnalyzeContext(ctx, s.Packed, DefaultOptions())
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	assertNoGoroutineLeak(t, before)
}

// assertNoGoroutineLeak is an in-tree goleak-style check: the goroutine
// count must settle back to its pre-call level (small slack for runtime
// housekeeping goroutines).
func assertNoGoroutineLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	var after int
	for time.Now().Before(deadline) {
		after = runtime.NumGoroutine()
		if after <= before+2 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Errorf("goroutine leak: before=%d after=%d", before, after)
}

// TestAnalyzeParallelDefault sanity-checks the default (all-CPU) path on a
// real sample against the serial path.
func TestAnalyzeParallelDefault(t *testing.T) {
	s := sample(t, 1)
	serial := DefaultOptions()
	serial.Parallelism = 1
	want, err := AnalyzeContext(context.Background(), s.Packed, serial)
	if err != nil {
		t.Fatal(err)
	}
	got, err := AnalyzeContext(context.Background(), s.Packed, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(normalize(got), normalize(want)) {
		t.Error("default parallelism result differs from serial run")
	}
}

// TestScanParallelTargets runs Scan concurrently over the targets of one
// analysis to surface engine-level shared state under -race.
func TestScanParallelTargets(t *testing.T) {
	s := sample(t, 42)
	res, err := Analyze(s.Packed, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 2*len(res.Targets))
	for _, tgt := range res.Targets {
		for _, eng := range []Engine{EngineStatic, EngineSymbolic} {
			go func(tr *TargetResult, e Engine) {
				_, err := tr.Scan(ScanOptions{Engine: e, StringFilter: true})
				done <- err
			}(tgt, eng)
		}
	}
	for i := 0; i < 2*len(res.Targets); i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}
