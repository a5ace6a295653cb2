package synth

import "testing"

func TestManifestMatch(t *testing.T) {
	m := Manifest{
		ITS: []ITSTruth{{Binary: "httpd", Entry: 0x50}},
		Handlers: []HandlerTruth{
			{Binary: "httpd", SinkEntry: 0x100, Sink: "strcpy", Category: VulnShallow, CTSDepth: 3},
			{Binary: "httpd", SinkEntry: 0x200, Sink: "strncpy", Category: SafeSanitized, CTSDepth: 9},
			{Binary: "netcgi", SinkEntry: 0x300, Sink: "system", Category: VulnDeep, CTSDepth: 7},
			{Binary: "netcgi", SinkEntry: 0x400, Sink: "system", Category: VulnDeep, CTSDepth: 7},
		},
	}
	for _, c := range []struct {
		binary string
		entry  uint32
		sink   string
		want   Verdict
	}{
		{"httpd", 0x100, "strcpy", PlantedVulnerable},
		{"httpd", 0x200, "strncpy", PlantedSafe},
		{"httpd", 0x180, "strcpy", Unplanted},
		{"httpd", 0x100, "sprintf", Unplanted}, // another sink in the handler's function
		{"netcgi", 0x100, "strcpy", Unplanted}, // the entry in another binary
	} {
		v, f := m.Match(c.binary, c.entry, c.sink)
		if v != c.want || f != (Flow{Binary: c.binary, SinkEntry: c.entry}) {
			t.Errorf("Match(%s, %#x, %s) = %v, %+v; want %v", c.binary, c.entry, c.sink, v, f, c.want)
		}
	}

	var tally Tally
	for _, a := range []struct {
		binary string
		entry  uint32
		sink   string
	}{
		{"httpd", 0x100, "strcpy"},
		{"httpd", 0x100, "strcpy"}, // a repeat alert on a found flow
		{"httpd", 0x200, "strncpy"},
		{"httpd", 0x100, "sprintf"},
		{"netcgi", 0x300, "system"},
	} {
		tally.Add(m.Match(a.binary, a.entry, a.sink))
	}
	want := map[Flow]bool{{"httpd", 0x100}: true, {"netcgi", 0x300}: true}
	if tally.Alerts != 5 || tally.FP != 2 || len(tally.Found) != len(want) {
		t.Errorf("tally = %+v, want 5 alerts, 2 FP, found %v", tally, want)
	}
	for f := range want {
		if !tally.Found[f] {
			t.Errorf("tally missed %+v", f)
		}
	}

	if !m.IsITS("httpd", 0x50) || m.IsITS("netcgi", 0x50) || m.IsITS("httpd", 0x100) {
		t.Error("IsITS must match binary and entry")
	}
	if h, ok := m.DeepestBug(); !ok || h.SinkEntry != 0x300 {
		t.Errorf("DeepestBug = %+v, %v; want the first depth-7 bug at 0x300", h, ok)
	}
	if _, ok := (&Manifest{}).DeepestBug(); ok {
		t.Error("DeepestBug found a bug in an empty manifest")
	}
}

func TestXManifestMatch(t *testing.T) {
	m := XManifest{Flows: []XFlowTruth{
		{SinkBinary: "bin/wifid", SinkEntry: 0x100, Sink: "system", CrossBinary: true, Vulnerable: true},
		{SinkBinary: "bin/wifid", SinkEntry: 0x200, Sink: "sprintf", CrossBinary: true},
	}}
	for _, c := range []struct {
		binary string
		entry  uint32
		sink   string
		want   Verdict
	}{
		{"bin/wifid", 0x100, "system", PlantedVulnerable},
		{"bin/wifid", 0x200, "sprintf", PlantedSafe},
		{"bin/wifid", 0x100, "popen", Unplanted},
		{"bin/httpd", 0x100, "system", Unplanted}, // the border binary, same entry
	} {
		if v, _ := m.Match(c.binary, c.entry, c.sink); v != c.want {
			t.Errorf("Match(%s, %#x, %s) = %v, want %v", c.binary, c.entry, c.sink, v, c.want)
		}
	}
}

// TestMatchCountsSharedEntryPerBinary: WNR1518 V1.2.4.24 plants a
// vulnerable flow at sink-function entry 0x11840 in both httpd and netcgi;
// alerts on both are two found flows.
func TestMatchCountsSharedEntryPerBinary(t *testing.T) {
	var spec *SampleSpec
	for _, s := range Dataset() {
		if s.Product == "WNR1518" && s.Version == "V1.2.4.24" {
			spec = &s
		}
	}
	if spec == nil {
		t.Fatal("dataset has no WNR1518 V1.2.4.24")
	}
	s, err := Generate(*spec)
	if err != nil {
		t.Fatal(err)
	}
	const shared = 0x11840
	var tally Tally
	for _, h := range s.Manifest.Handlers {
		if h.SinkEntry == shared && h.Category.Vulnerable() {
			tally.Add(s.Manifest.Match(h.Binary, h.SinkEntry, h.Sink))
		}
	}
	if tally.Alerts != 2 || tally.FP != 0 || len(tally.Found) != 2 ||
		!tally.Found[Flow{"httpd", shared}] || !tally.Found[Flow{"netcgi", shared}] {
		t.Errorf("tally = %+v, want the httpd and netcgi flows at %#x", tally, shared)
	}
}
