package taint

import (
	"context"
	"testing"

	"fits/internal/loader"
	"fits/internal/synth"
)

// TestDebugSTA scores the first target of four samples with classical
// sources only and with the target's planted ITSs seeded: every reported
// alert must land on a planted flow, and seeding the ITSs must find at
// least the bugs classical sources find.
func TestDebugSTA(t *testing.T) {
	for _, idx := range []int{0, 17, 30, 42} {
		spec := synth.Dataset()[idx]
		s, err := synth.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := loader.LoadContext(context.Background(), s.Packed, loader.Options{})
		if err != nil {
			t.Fatalf("%v: %v", spec.Product, err)
		}
		target := res.Targets[0]
		man := s.Manifest
		score := func(mode string, alerts []Alert) synth.Tally {
			var tally synth.Tally
			for _, a := range alerts {
				v, f := man.Match(target.Bin.Name, a.Func, a.Sink)
				tally.Add(v, f)
				if v == synth.Unplanted {
					t.Errorf("%s %s: %s alert func=%#x sink=%s from=%v key=%q lands on no planted flow",
						man.Product, target.Bin.Name, mode, a.Func, a.Sink, a.From, a.Key)
				}
			}
			return tally
		}
		cts := score("CTS", New(target.Bin, target.Model, Options{UseCTS: true}).Run())
		var its []uint32
		for _, it := range man.ITSIn(target.Bin.Name) {
			its = append(its, it.Entry)
		}
		eits := New(target.Bin, target.Model, Options{UseCTS: true, ITS: its, StringFilter: true})
		itsAlerts := eits.Run()
		seeded := score("+ITS", itsAlerts)
		t.Logf("%-8s %-10s bugs=%2d | CTS alerts=%2d tp=%2d fp=%2d | +ITS alerts=%2d tp=%2d fp=%2d filtered=%d",
			man.Vendor, man.Product, man.TrueBugs(), cts.Alerts, len(cts.Found), cts.FP,
			seeded.Alerts, len(seeded.Found), seeded.FP, len(eits.AllAlerts())-len(itsAlerts))
		if len(seeded.Found) < len(cts.Found) {
			t.Errorf("%s: ITS seeding found %d bugs, fewer than classical sources' %d",
				man.Product, len(seeded.Found), len(cts.Found))
		}
	}
}
