package synth

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"fits/internal/binimg"
	"fits/internal/frontend"
)

func TestGenerateXCorpusDeterministic(t *testing.T) {
	a, err := GenerateXCorpus(7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateXCorpus(7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Manifest, b.Manifest) {
		t.Fatal("manifest not deterministic")
	}
	if len(a.Files) != len(b.Files) {
		t.Fatalf("file counts differ: %d vs %d", len(a.Files), len(b.Files))
	}
	for i := range a.Files {
		if a.Files[i].Path != b.Files[i].Path || !bytes.Equal(a.Files[i].Data, b.Files[i].Data) {
			t.Fatalf("file %s not byte-identical", a.Files[i].Path)
		}
	}
}

func TestXCorpusShape(t *testing.T) {
	x, err := GenerateXCorpus(7)
	if err != nil {
		t.Fatal(err)
	}
	m := x.Manifest

	// Every listed binary decodes; only the border binary imports network
	// interfaces — the basis of the claim that single-binary analysis
	// cannot see the back-end flows.
	netImports := map[string]bool{"socket": true, "bind": true, "listen": true,
		"accept": true, "recv": true, "recvfrom": true, "read": true}
	for _, p := range m.Binaries {
		var data []byte
		for _, f := range x.Files {
			if f.Path == p {
				data = f.Data
			}
		}
		if data == nil {
			t.Fatalf("manifest binary %s missing from files", p)
		}
		bin, err := binimg.Decode(data)
		if err != nil {
			t.Fatalf("decode %s: %v", p, err)
		}
		hasNet := false
		for _, im := range bin.Imports {
			if netImports[im.Name] {
				hasNet = true
			}
		}
		if wantNet := p == "bin/httpd"; hasNet != wantNet {
			t.Errorf("%s network imports = %v, want %v", p, hasNet, wantNet)
		}
	}

	// The front-end artifacts yield exactly the manifest keywords.
	var kws []frontend.Keyword
	for _, f := range x.Files {
		kws = append(kws, frontend.Extract(f.Path, f.Data)...)
	}
	var names []string
	for _, k := range kws {
		names = append(names, k.Name)
	}
	slices.Sort(names)
	if got := slices.Compact(names); !reflect.DeepEqual(got, m.Keywords) {
		t.Errorf("front-end keywords = %v, want %v", got, m.Keywords)
	}

	// Flow truths reference real functions and include both orders of
	// cross-binary hops.
	cross, twoHop := 0, 0
	for _, f := range m.Flows {
		if f.SinkEntry == 0 {
			t.Errorf("flow %s has no sink entry", f.Name)
		}
		if f.CrossBinary {
			cross++
		}
		if len(f.Hops) == 2 {
			twoHop++
		}
	}
	if cross < 4 || twoHop < 1 {
		t.Errorf("cross flows = %d (want >= 4), two-hop = %d (want >= 1)", cross, twoHop)
	}
}
