package taint

import (
	"context"
	"fmt"
	"testing"

	"fits/internal/loader"
	"fits/internal/synth"
)

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
		classify := func(alerts []Alert) (tp, fp int) {
			for _, a := range alerts {
				if h, ok := man.HandlerBySink(target.Bin.Name, a.Func); ok && h.Category.Vulnerable() {
					tp++
				} else {
					fp++
				}
			}
			return
		}
		// CTS only
		ectx := New(target.Bin, target.Model, Options{UseCTS: true})
		ctsAlerts := ectx.Run()
		tp, fp := classify(ctsAlerts)
		// ITS mode
		var its []uint32
		for _, it := range man.ITS {
			its = append(its, it.Entry)
		}
		eits := New(target.Bin, target.Model, Options{UseCTS: true, ITS: its, StringFilter: true})
		itsAlerts := eits.Run()
		tp2, fp2 := classify(itsAlerts)
		nfiltered := len(eits.AllAlerts()) - len(itsAlerts)
		fmt.Printf("%-8s %-10s bugs=%2d | CTS alerts=%2d tp=%2d fp=%2d | +ITS alerts=%2d tp=%2d fp=%2d filtered=%d\n",
			man.Vendor, man.Product, man.TrueBugs(), len(ctsAlerts), tp, fp, len(itsAlerts), tp2, fp2, nfiltered)
		for _, a := range itsAlerts {
			h, ok := man.HandlerBySink(target.Bin.Name, a.Func)
			if !ok {
				fmt.Printf("    UNKNOWN alert func=%#x sink=%s from=%v key=%q\n", a.Func, a.Sink, a.From, a.Key)
			} else if !h.Category.Vulnerable() {
				fmt.Printf("    FP %-20s sink=%s from=%v key=%q\n", h.Category, a.Sink, a.From, a.Key)
			}
		}
	}
}
