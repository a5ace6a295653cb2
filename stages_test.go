package fits

// Tests for the per-stage accounting: self times partition a serial
// analysis, stay non-negative under parallelism, and every stage is wired.

import (
	"testing"
	"time"

	"fits/internal/stagetime"
	"fits/internal/synth"
)

// TestStagesPartitionSerialAnalysis: at Parallelism 1 spans overlap only by
// nesting, so the stages' self times sum to the time spent inside spans —
// never more than the analysis's wall time, and short of it only by the
// glue between stages.
func TestStagesPartitionSerialAnalysis(t *testing.T) {
	s := sample(t, 0)
	opts := DefaultOptions()
	opts.Parallelism = 1
	opts.Stages = new(StageTimer)
	start := time.Now()
	if _, err := Analyze(s.Packed, opts); err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start).Nanoseconds()
	var sum int64
	for _, st := range stagetime.Stages() {
		sum += opts.Stages.WallNanos(st)
	}
	t.Logf("stage self times cover %d of %d ns (%.1f%%)", sum, wall, 100*float64(sum)/float64(wall))
	if sum > wall || sum < wall*9/10 {
		t.Errorf("stage self times sum to %d ns, want between 90%% and 100%% of the %d ns wall time", sum, wall)
	}
}

// TestStagesNonNegativeInParallel: no span encloses a fan-out, so however
// workers interleave, no stage's self time or self allocation count goes
// negative.
func TestStagesNonNegativeInParallel(t *testing.T) {
	s := sample(t, 42)
	opts := DefaultOptions()
	opts.Parallelism = 4
	opts.Stages = new(StageTimer)
	res, err := Analyze(s.Packed, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, tgt := range res.Targets {
		if _, err := tgt.Scan(ScanOptions{StringFilter: true}); err != nil {
			t.Fatal(err)
		}
	}
	for _, st := range stagetime.Stages() {
		if ns, n := opts.Stages.WallNanos(st), opts.Stages.Allocs(st); ns < 0 || n < 0 {
			t.Errorf("stage %s: self time %d ns, self allocs %d; want both >= 0", st, ns, n)
		}
	}
}

// TestStagesRecordEveryStage: one Analyze+Scan on an image planting aliased
// and infeasible handlers charges every stage, nested ones included.
func TestStagesRecordEveryStage(t *testing.T) {
	s, err := synth.Generate(synth.SampleSpec{
		Vendor: "Tenda", Series: "AC", Product: "AC-ST1", Version: "V1.0.1", Seed: 9401,
		ExtraHandlers: map[synth.HandlerCategory]int{synth.VulnAliased: 1, synth.SafeInfeasible: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Stages = new(StageTimer)
	res, err := Analyze(s.Packed, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, tgt := range res.Targets {
		var its []uint32
		for _, it := range s.Manifest.ITSIn(tgt.Binary) {
			its = append(its, it.Entry)
		}
		if _, err := tgt.Scan(ScanOptions{ITS: its, StringFilter: true}); err != nil {
			t.Fatal(err)
		}
	}
	for _, st := range stagetime.Stages() {
		if opts.Stages.WallNanos(st) <= 0 {
			t.Errorf("stage %s recorded no time", st)
		}
	}
}

// TestXScanITSModeChargesInference: a corpus scan seeded with inferred
// sources runs inference, and the scan's Timer sees it.
func TestXScanITSModeChargesInference(t *testing.T) {
	st := new(StageTimer)
	if _, err := XScan(xcorpusFiles(t), XScanOptions{Mode: "its", Stages: st}); err != nil {
		t.Fatal(err)
	}
	for _, s := range []stagetime.Stage{stagetime.Infer, stagetime.ReachDef} {
		if st.WallNanos(s) <= 0 {
			t.Errorf("its-mode xscan charged no %s time", s)
		}
	}
}
