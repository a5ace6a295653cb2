package loader

import (
	"errors"
	"path"
	"testing"

	"fits/internal/firmware"
	"fits/internal/modelcache"
	"fits/internal/synth"
)

func generate(t *testing.T, idx int) *synth.Sample {
	t.Helper()
	s, err := synth.Generate(synth.Dataset()[idx])
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestLoadSelectsNetworkBinary(t *testing.T) {
	s := generate(t, 0) // NETGEAR
	res, err := Load(s.Packed, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// NETGEAR samples carry two network binaries (httpd + netcgi).
	if len(res.Targets) != len(s.Manifest.NetBinaries) {
		t.Fatalf("targets = %d, want %d", len(res.Targets), len(s.Manifest.NetBinaries))
	}
	tg := res.Targets[0]
	if tg.Path != s.Manifest.NetBinaries[0] {
		t.Errorf("path = %q, want %q", tg.Path, s.Manifest.NetBinaries[0])
	}
	if tg.Model == nil || len(tg.Model.Funcs) < 100 {
		t.Error("model missing or too small")
	}
	if _, ok := tg.Libs["libc.so"]; !ok {
		t.Error("libc dependency not resolved")
	}
	if _, ok := tg.LibModels["libc.so"]; !ok {
		t.Error("libc model not built")
	}
}

func TestPreprocessMissReturnsErrNoTargets(t *testing.T) {
	var spec synth.SampleSpec
	for _, s := range synth.Dataset() {
		if s.FailureMode == "preprocess-miss" {
			spec = s
			break
		}
	}
	sample, err := synth.Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Load(sample.Packed, Options{})
	if !errors.Is(err, ErrNoTargets) {
		t.Errorf("err = %v, want ErrNoTargets", err)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load([]byte("not a firmware image"), Options{}); err == nil {
		t.Error("expected unpack error")
	}
}

func TestLoadImageDirect(t *testing.T) {
	s := generate(t, 20) // D-Link (XOR-encoded when packed)
	res, err := LoadImage(s.Image, Options{SkipResolver: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Targets) != 1 {
		t.Fatalf("targets = %d", len(res.Targets))
	}
	if res.Scheme != firmware.SchemeNone {
		t.Errorf("scheme = %v", res.Scheme)
	}
}

func TestSchemeDetectionOnPacked(t *testing.T) {
	s := generate(t, 20) // D-Link uses XOR wrapping
	res, err := Load(s.Packed, Options{SkipResolver: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheme != s.Manifest.Scheme {
		t.Errorf("scheme = %v, want %v", res.Scheme, s.Manifest.Scheme)
	}
}

func TestResolverCompletesDispatch(t *testing.T) {
	s := generate(t, 0)
	with, err := Load(s.Packed, Options{})
	if err != nil {
		t.Fatal(err)
	}
	without, err := Load(s.Packed, Options{SkipResolver: true})
	if err != nil {
		t.Fatal(err)
	}
	count := func(r *Result) int {
		n := 0
		for _, f := range r.Targets[0].Model.FuncsInOrder() {
			for _, cs := range f.Calls {
				if cs.Indirect && cs.Target != 0 {
					n++
				}
			}
		}
		return n
	}
	if count(with) == 0 {
		t.Error("resolver resolved no indirect calls")
	}
	if count(without) != 0 {
		t.Error("indirect calls resolved without resolver")
	}
}

func TestExecutablePathClassification(t *testing.T) {
	cases := map[string]bool{
		"bin/httpd":      true,
		"usr/sbin/httpd": true,
		"usr/bin/prog":   true,
		"lib/libc.so":    false,
		"bin/libhack.so": false,
		"etc/version":    false,
		"www/index.html": false,
		"deep/bin/httpd": false,
	}
	for p, want := range cases {
		if got := isExecutablePath(p); got != want {
			t.Errorf("isExecutablePath(%q) = %v, want %v", p, got, want)
		}
	}
}

func TestTargetsDeterministicOrder(t *testing.T) {
	s := generate(t, 0)
	a, err := Load(s.Packed, Options{SkipResolver: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Load(s.Packed, Options{SkipResolver: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Targets) != len(b.Targets) {
		t.Fatal("target count differs")
	}
	for i := range a.Targets {
		if a.Targets[i].Path != b.Targets[i].Path {
			t.Error("target order not deterministic")
		}
	}
}

// TestLoadWithoutCacheHashesContent: every load gives its targets content
// identities, cache or not, so downstream memo keys never see a zero hash.
func TestLoadWithoutCacheHashesContent(t *testing.T) {
	s := generate(t, 0)
	res, err := Load(s.Packed, Options{SkipResolver: true})
	if err != nil {
		t.Fatal(err)
	}
	data := map[string][]byte{}
	for _, f := range res.Image.Files {
		data[f.Path] = f.Data
		data[path.Base(f.Path)] = f.Data
	}
	for _, tg := range res.Targets {
		if tg.Hash != modelcache.HashBytes(data[tg.Path]) {
			t.Errorf("%s: Hash is not the content hash of its bytes", tg.Path)
		}
		if len(tg.LibHashes) == 0 || len(tg.LibHashes) != len(tg.Libs) {
			t.Errorf("%s: %d lib hashes for %d libs", tg.Path, len(tg.LibHashes), len(tg.Libs))
		}
		for name, h := range tg.LibHashes {
			if h != modelcache.HashBytes(data[name]) {
				t.Errorf("%s: LibHashes[%s] is not the content hash of its bytes", tg.Path, name)
			}
		}
	}
}
