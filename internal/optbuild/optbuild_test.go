package optbuild

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"

	"fits"
	"fits/internal/score"
)

func TestNormalizeDefaults(t *testing.T) {
	var s Spec
	if err := s.Normalize(); err != nil {
		t.Fatal(err)
	}
	if s.TopK != DefaultTopK {
		t.Errorf("TopK = %d, want %d", s.TopK, DefaultTopK)
	}
	if s.Engine != "static" || s.Metric != "cosine" {
		t.Errorf("defaults = %q/%q, want static/cosine", s.Engine, s.Metric)
	}
	if s.StringFilter == nil || !*s.StringFilter {
		t.Error("StringFilter default should be true")
	}
}

func TestNormalizeRejectsBadValues(t *testing.T) {
	for _, s := range []Spec{
		{Engine: "quantum"},
		{Metric: "hamming"},
		{TopK: -1},
		{Parallelism: -2},
		{Timeout: Duration(-time.Second)},
	} {
		s := s
		if err := s.Normalize(); err == nil {
			t.Errorf("Normalize(%+v) accepted invalid spec", s)
		}
	}
}

func TestEngineAndMetricMapping(t *testing.T) {
	s := Spec{Engine: "symbolic", Metric: "pearson"}
	e, err := s.EngineValue()
	if err != nil || e != fits.EngineSymbolic {
		t.Errorf("EngineValue = %v, %v", e, err)
	}
	m, err := s.MetricValue()
	if err != nil || m != score.Pearson {
		t.Errorf("MetricValue = %v, %v", m, err)
	}
}

func TestAnalyzeOptions(t *testing.T) {
	cache := fits.NewCache(0, 0)
	s := Spec{Parallelism: 4, Metric: "euclidean"}
	opts, err := s.AnalyzeOptions(cache)
	if err != nil {
		t.Fatal(err)
	}
	if opts.Parallelism != 4 || opts.Metric != score.Euclidean || opts.Cache != cache {
		t.Errorf("AnalyzeOptions = %+v", opts)
	}
	s.NoCache = true
	opts, err = s.AnalyzeOptions(cache)
	if err != nil {
		t.Fatal(err)
	}
	if opts.Cache != nil {
		t.Error("NoCache spec still received the cache")
	}
}

func TestScanOptionsWithoutTarget(t *testing.T) {
	off := false
	s := Spec{Engine: "symbolic", SeedITS: true, StringFilter: &off}
	opts, err := s.ScanOptions(nil)
	if err != nil {
		t.Fatal(err)
	}
	if opts.Engine != fits.EngineSymbolic || opts.StringFilter || len(opts.ITS) != 0 {
		t.Errorf("ScanOptions = %+v", opts)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	in := Spec{Engine: "symbolic", Scan: true, SeedITS: true, TopK: 5,
		Metric: "manhattan", Parallelism: 2, Timeout: Duration(90 * time.Second)}
	b, err := json.Marshal(in)
	if err != nil {
		t.Fatal(err)
	}
	var out Spec
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Errorf("round trip: got %+v, want %+v", out, in)
	}
}

func TestDurationJSON(t *testing.T) {
	var d Duration
	if err := json.Unmarshal([]byte(`"1m30s"`), &d); err != nil {
		t.Fatal(err)
	}
	if time.Duration(d) != 90*time.Second {
		t.Errorf("parsed %v", time.Duration(d))
	}
	if err := json.Unmarshal([]byte(`45`), &d); err == nil {
		t.Error("bare numbers other than 0 should be rejected")
	}
	if err := json.Unmarshal([]byte(`0`), &d); err != nil || d != 0 {
		t.Errorf("zero literal: %v, %v", d, err)
	}
	b, err := json.Marshal(Duration(2 * time.Minute))
	if err != nil || string(b) != `"2m0s"` {
		t.Errorf("marshal = %s, %v", b, err)
	}
}

func TestBindFlags(t *testing.T) {
	var s Spec
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	s.BindAnalyzeFlags(fs)
	s.BindScanFlags(fs)
	err := fs.Parse([]string{"-top", "7", "-j", "3", "-timeout", "15s",
		"-engine", "symbolic", "-its", "-filter=false"})
	if err != nil {
		t.Fatal(err)
	}
	if s.TopK != 7 || s.Parallelism != 3 || time.Duration(s.Timeout) != 15*time.Second {
		t.Errorf("analyze flags: %+v", s)
	}
	if s.Engine != "symbolic" || !s.SeedITS || s.StringFilter == nil || *s.StringFilter {
		t.Errorf("scan flags: %+v", s)
	}
}

func TestCacheConfig(t *testing.T) {
	var c CacheConfig
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	c.BindFlags(fs)
	if err := fs.Parse([]string{"-no-cache"}); err != nil {
		t.Fatal(err)
	}
	if c.New() != nil {
		t.Error("disabled cache config still built a cache")
	}
	if (CacheConfig{}).New() == nil {
		t.Error("default cache config built no cache")
	}
}

func TestProfile(t *testing.T) {
	var off Profile
	stop, err := off.Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}

	var p Profile
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	p.BindFlags(fs)
	path := filepath.Join(t.TempDir(), "cpu.out")
	if err := fs.Parse([]string{"-cpuprofile", path}); err != nil {
		t.Fatal(err)
	}
	stop, err = p.Start()
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() == 0 {
		t.Fatalf("profile file: %v, %v", fi, err)
	}
	p.CPU = filepath.Join(path, "missing", "cpu.out")
	if _, err := p.Start(); err == nil {
		t.Error("an uncreatable profile file started a profile")
	}
}
