package loader

import (
	"context"
	"errors"
	"path"
	"reflect"
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
	res, err := LoadContext(context.Background(), s.Packed, Options{})
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
	_, err = LoadContext(context.Background(), sample.Packed, Options{})
	if !errors.Is(err, ErrNoTargets) {
		t.Errorf("err = %v, want ErrNoTargets", err)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := LoadContext(context.Background(), []byte("not a firmware image"), Options{}); err == nil {
		t.Error("expected unpack error")
	}
}

func TestLoadImageDirect(t *testing.T) {
	s := generate(t, 20) // D-Link (XOR-encoded when packed)
	res, err := LoadImageContext(context.Background(), s.Image, Options{})
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
	res, err := LoadContext(context.Background(), s.Packed, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Scheme != s.Manifest.Scheme {
		t.Errorf("scheme = %v, want %v", res.Scheme, s.Manifest.Scheme)
	}
}

func TestResolverCompletesDispatch(t *testing.T) {
	s := generate(t, 0)
	with, err := LoadContext(context.Background(), s.Packed, Options{})
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
	a, err := LoadContext(context.Background(), s.Packed, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := LoadContext(context.Background(), s.Packed, Options{})
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
	res, err := LoadContext(context.Background(), s.Packed, Options{})
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

// TestTargetsOnlySkipsLibraryModels: a TargetsOnly load builds the same
// target models as a full load and resolves the same libraries, but lifts
// no library.
func TestTargetsOnlySkipsLibraryModels(t *testing.T) {
	s := generate(t, 0)
	full, err := LoadImageContext(context.Background(), s.Image, Options{})
	if err != nil {
		t.Fatal(err)
	}
	lean, err := LoadImageContext(context.Background(), s.Image, Options{TargetsOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if lean.Lifted != len(lean.Targets) || lean.Reused != 0 {
		t.Errorf("lifted %d / reused %d, want %d / 0", lean.Lifted, lean.Reused, len(lean.Targets))
	}
	if full.Lifted <= lean.Lifted {
		t.Errorf("full load lifted %d models, want more than %d", full.Lifted, lean.Lifted)
	}
	if len(lean.Targets) != len(full.Targets) {
		t.Fatalf("targets = %d, want %d", len(lean.Targets), len(full.Targets))
	}
	for i, tg := range lean.Targets {
		want := full.Targets[i]
		if tg.Path != want.Path || tg.Hash != want.Hash {
			t.Errorf("target %d = %s, want %s", i, tg.Path, want.Path)
		}
		if !reflect.DeepEqual(tg.Model, want.Model) {
			t.Errorf("%s: model differs from a full load's", tg.Path)
		}
		if !reflect.DeepEqual(tg.Libs, want.Libs) || !reflect.DeepEqual(tg.LibHashes, want.LibHashes) {
			t.Errorf("%s: libraries differ from a full load's", tg.Path)
		}
		if len(tg.LibModels) != 0 {
			t.Errorf("%s: %d library models, want none", tg.Path, len(tg.LibModels))
		}
	}
}
