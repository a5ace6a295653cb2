package loader_test

import (
	"testing"

	"fits/internal/infer"
	"fits/internal/know"
	"fits/internal/loader"
	"fits/internal/synth"
)

// TestAnchorsIdentified: the anchor matrix of a NETGEAR target has one row
// per anchor export of its libc that the library model recovered.
func TestAnchorsIdentified(t *testing.T) {
	s, err := synth.Generate(synth.Dataset()[0])
	if err != nil {
		t.Fatal(err)
	}
	res, err := loader.Load(s.Packed, loader.Options{})
	if err != nil {
		t.Fatal(err)
	}
	tg := res.Targets[0]
	if len(tg.Libs) != 1 {
		t.Fatalf("libs = %d, want libc.so only", len(tg.Libs))
	}
	libc, m := tg.Libs["libc.so"], tg.LibModels["libc.so"]
	if libc == nil || m == nil {
		t.Fatal("libc.so not resolved")
	}
	want := 0
	for _, e := range libc.Exports {
		if _, ok := know.Anchors[e.Name]; !ok {
			continue
		}
		if _, ok := m.FuncAt(e.Addr); ok {
			want++
		}
	}
	got := len(infer.AnchorVectorsForTest(tg))
	if got < 8 {
		t.Errorf("anchors = %d, want >= 8", got)
	}
	if got != want {
		t.Errorf("anchor rows = %d, want %d (one per recovered libc anchor export)", got, want)
	}
}
