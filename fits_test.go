package fits

import (
	"testing"

	"fits/internal/synth"
)

func sample(t *testing.T, idx int) *synth.Sample {
	t.Helper()
	s, err := synth.Generate(synth.Dataset()[idx])
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestAnalyzeEndToEnd(t *testing.T) {
	s := sample(t, 0)
	res, err := Analyze(s.Packed, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Vendor != s.Manifest.Vendor || res.Product != s.Manifest.Product {
		t.Errorf("identity = %s %s", res.Vendor, res.Product)
	}
	if len(res.Targets) != len(s.Manifest.NetBinaries) {
		t.Fatalf("targets = %d, want %d", len(res.Targets), len(s.Manifest.NetBinaries))
	}
	tgt := res.Targets[0]
	if tgt.NumFuncs < 100 || len(tgt.Candidates) == 0 {
		t.Fatalf("funcs=%d candidates=%d", tgt.NumFuncs, len(tgt.Candidates))
	}
	// The planted ITS must sit in the top-3 for this sample.
	found := false
	for _, c := range tgt.TopCandidates(3) {
		if s.Manifest.IsITS(tgt.Binary, c.Entry) {
			found = true
		}
	}
	if !found {
		t.Error("planted ITS not in top-3")
	}
	if got := len(tgt.TopCandidates(-1)); got != 0 {
		t.Errorf("TopCandidates(-1) = %d candidates, want 0", got)
	}
}

func TestAnalyzeRejectsGarbage(t *testing.T) {
	if _, err := Analyze([]byte("junk"), DefaultOptions()); err == nil {
		t.Error("expected error")
	}
}

func TestScanBothEngines(t *testing.T) {
	s := sample(t, 42) // Tenda: many planted bugs
	res, err := Analyze(s.Packed, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	tgt := res.Targets[0]
	var its []uint32
	for _, c := range tgt.TopCandidates(3) {
		if s.Manifest.IsITS(tgt.Binary, c.Entry) {
			its = append(its, c.Entry)
		}
	}
	if len(its) == 0 {
		t.Fatal("no verified ITS in top-3")
	}

	static, err := tgt.Scan(ScanOptions{Engine: EngineStatic, ITS: its, StringFilter: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(static) == 0 {
		t.Error("static engine found nothing with ITSs")
	}
	for _, a := range static {
		if a.Sink == "" || a.Site == 0 || a.Kind == "" {
			t.Errorf("malformed alert %+v", a)
		}
	}
	symbolic, err := tgt.Scan(ScanOptions{Engine: EngineSymbolic, ITS: its})
	if err != nil {
		t.Fatal(err)
	}
	// The budgeted symbolic engine covers far less than the static engine.
	if len(symbolic) >= len(static) {
		t.Errorf("symbolic=%d should trail static=%d", len(symbolic), len(static))
	}
}

func TestScanRequiresAnalyzedTarget(t *testing.T) {
	tr := &TargetResult{}
	if _, err := tr.Scan(ScanOptions{}); err == nil {
		t.Error("expected error for detached target")
	}
}

func TestKnowledgeAccessors(t *testing.T) {
	if len(Sinks()) < 5 || len(Sources()) < 5 || len(Anchors()) < 8 {
		t.Errorf("knowledge base sizes: sinks=%d sources=%d anchors=%d",
			len(Sinks()), len(Sources()), len(Anchors()))
	}
}
