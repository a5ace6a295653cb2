package synth

import (
	"fmt"
	"math/rand"
	"testing"

	"fits/internal/binimg"
	"fits/internal/cfg"
	"fits/internal/firmware"
	"fits/internal/isa"
	"fits/internal/know"
	"fits/internal/minic"
)

// appBinary decodes the network binary of a sample.
func appBinary(s *Sample) (*binimg.Binary, error) {
	f, ok := s.Image.Lookup(s.Manifest.NetBinaries[0])
	if !ok {
		return nil, fmt.Errorf("synth: network binary missing")
	}
	return binimg.Decode(f.Data)
}

// libcBinary decodes the sample's libc.
func libcBinary(s *Sample) (*binimg.Binary, error) {
	f, ok := s.Image.Lookup("lib/libc.so")
	if !ok {
		return nil, fmt.Errorf("synth: libc missing")
	}
	return binimg.Decode(f.Data)
}

func TestLibcProgramLinksOnAllArches(t *testing.T) {
	p := LibcProgram(rand.New(rand.NewSource(1)))
	for _, arch := range []isa.Arch{isa.ArchARM, isa.ArchAARCH, isa.ArchMIPS} {
		bin, err := minic.Link(p, arch, nil)
		if err != nil {
			t.Fatalf("%v: %v", arch, err)
		}
		exported := map[string]bool{}
		for _, e := range bin.Exports {
			exported[e.Name] = true
		}
		// All anchors must be exported.
		for name := range know.Anchors {
			if !exported[name] {
				t.Errorf("%v: anchor %s not exported", arch, name)
			}
		}
		for name := range know.Sources {
			if !exported[name] {
				t.Errorf("%v: source %s not exported", arch, name)
			}
		}
	}
}

func TestLibcVariesByRand(t *testing.T) {
	a, _ := minic.Link(LibcProgram(rand.New(rand.NewSource(1))), isa.ArchARM, nil)
	b, _ := minic.Link(LibcProgram(rand.New(rand.NewSource(99))), isa.ArchARM, nil)
	if string(a.Encode()) == string(b.Encode()) {
		t.Error("libc builds identical across seeds")
	}
}

func TestDatasetShape(t *testing.T) {
	specs := Dataset()
	if len(specs) != 59 {
		t.Fatalf("dataset size = %d, want 59", len(specs))
	}
	counts := map[string]int{}
	latest := 0
	failures := map[string]int{}
	for _, s := range specs {
		counts[s.Vendor]++
		if s.Latest {
			latest++
		}
		if s.FailureMode != "" {
			failures[s.FailureMode]++
		}
	}
	if counts["NETGEAR"] != 19 || counts["D-Link"] != 12 || counts["TP-Link"] != 18 ||
		counts["Tenda"] != 9 || counts["Cisco"] != 1 {
		t.Errorf("vendor counts = %v", counts)
	}
	if latest != 10 {
		t.Errorf("latest = %d, want 10", latest)
	}
	if failures["preprocess-miss"] != 4 || failures["offset-indexed"] != 2 {
		t.Errorf("failures = %v", failures)
	}
	// Seeds must be unique and deterministic.
	seen := map[int64]bool{}
	for _, s := range specs {
		if seen[s.Seed] {
			t.Errorf("duplicate seed for %s %s", s.Vendor, s.Product)
		}
		seen[s.Seed] = true
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec := Dataset()[0]
	a, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	if string(a.Packed) != string(b.Packed) {
		t.Error("generation not deterministic")
	}
}

func TestGeneratedSampleStructure(t *testing.T) {
	spec := Dataset()[0] // NETGEAR
	s, err := Generate(spec)
	if err != nil {
		t.Fatal(err)
	}
	man := s.Manifest

	// Firmware must unpack from the packed bytes.
	img, err := firmware.Unpack(s.Packed)
	if err != nil {
		t.Fatalf("unpack: %v", err)
	}
	if img.Vendor != "NETGEAR" {
		t.Errorf("vendor = %q", img.Vendor)
	}

	app, err := appBinary(s)
	if err != nil {
		t.Fatal(err)
	}
	if !app.Stripped || len(app.Funcs) != 0 {
		t.Error("network binary must be stripped")
	}
	libc, err := libcBinary(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(libc.Exports) == 0 {
		t.Error("libc must export dynamic symbols")
	}

	// The app must import network interface functions.
	var hasNet bool
	for _, im := range app.Imports {
		if know.NetworkImports[im.Name] {
			hasNet = true
		}
	}
	if !hasNet {
		t.Error("no network imports in app binary")
	}

	// Manifest ITS entries must have resolvable entry addresses inside the
	// recovered function set.
	m, err := cfg.Build(app, cfg.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(man.ITS) == 0 {
		t.Fatal("no ITS in manifest")
	}
	for _, its := range man.ITS {
		if its.Entry == 0 {
			t.Fatalf("ITS %s has zero entry", its.FuncName)
		}
		if its.Binary != app.Name {
			continue // lives in a secondary network binary
		}
		if _, ok := m.FuncAt(its.Entry); !ok {
			t.Errorf("ITS %s entry %#x not a recovered function", its.FuncName, its.Entry)
		}
	}
	for _, h := range man.Handlers {
		if h.Entry == 0 {
			t.Errorf("handler %s has zero entry", h.FuncName)
		}
	}
	if man.TrueBugs() == 0 {
		t.Error("no vulnerable handlers planted")
	}

	// Function count should be substantial (hundreds).
	if n := len(m.CustomFuncs()); n < 150 {
		t.Errorf("custom functions = %d, want >= 150", n)
	}
}

func TestFailureModes(t *testing.T) {
	var miss, offset *SampleSpec
	for i, s := range Dataset() {
		switch s.FailureMode {
		case "preprocess-miss":
			if miss == nil {
				miss = &Dataset()[i]
			}
		case "offset-indexed":
			if offset == nil {
				offset = &Dataset()[i]
			}
		}
	}
	if miss == nil || offset == nil {
		t.Fatal("failure specs missing")
	}

	s, err := Generate(*miss)
	if err != nil {
		t.Fatal(err)
	}
	app, err := appBinary(s)
	if err != nil {
		t.Fatal(err)
	}
	for _, im := range app.Imports {
		if know.NetworkImports[im.Name] {
			t.Errorf("preprocess-miss app still imports %s", im.Name)
		}
	}
	if _, ok := s.Image.Lookup("lib/libnetshim.so"); !ok {
		t.Error("shim library missing")
	}

	s2, err := Generate(*offset)
	if err != nil {
		t.Fatal(err)
	}
	if len(s2.Manifest.ITS) != 0 {
		t.Error("offset-indexed sample should have no ITS")
	}
}

func TestHandlerCategories(t *testing.T) {
	if !VulnShallow.Vulnerable() || !VulnDeep.Vulnerable() {
		t.Error("vuln categories must be vulnerable")
	}
	for _, c := range []HandlerCategory{SafeSanitized, BenignSystemData, SystemKeyFetch} {
		if c.Vulnerable() {
			t.Errorf("%v must not be vulnerable", c)
		}
	}
	for c := VulnShallow; c <= SafeRaw; c++ {
		if c.String() == "unknown" {
			t.Errorf("category %d unnamed", c)
		}
	}
	if !VulnRaw.Vulnerable() || SafeRaw.Vulnerable() {
		t.Error("raw categories misclassified")
	}
}

func TestManifestQueries(t *testing.T) {
	m := Manifest{
		ITS: []ITSTruth{{Binary: "httpd", FuncName: "a", Entry: 1}},
		Handlers: []HandlerTruth{
			{Binary: "httpd", FuncName: "h1", Entry: 2, Category: VulnShallow},
			{Binary: "httpd", FuncName: "h2", Entry: 3, Category: SafeSanitized},
		},
	}
	if len(m.ITSIn("httpd")) != 1 || len(m.ITSIn("other")) != 0 {
		t.Error("ITSIn wrong")
	}
	if m.TrueBugs() != 1 {
		t.Errorf("TrueBugs = %d", m.TrueBugs())
	}
}
