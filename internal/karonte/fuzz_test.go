package karonte

import (
	"slices"
	"testing"

	"fits/internal/binimg"
	"fits/internal/cfg"
	"fits/internal/loader"
	"fits/internal/synth"
	"fits/internal/taint"
	"fits/internal/ucse"
)

// FuzzKaronte drives the engine end to end from binary bytes: decode, build
// the model with both ucse resolvers, then explore twice under a lowered
// step budget. Exploration must not panic, must be deterministic, and must
// stay within its budget. The seeds are one synth image's network targets.
func FuzzKaronte(f *testing.F) {
	s, err := synth.Generate(synth.Dataset()[0])
	if err != nil {
		f.Fatal(err)
	}
	res, err := loader.Load(s.Packed, loader.Options{})
	if err != nil {
		f.Fatal(err)
	}
	for _, tgt := range res.Targets {
		f.Add(tgt.Bin.Encode())
	}
	const steps = 2000
	f.Fuzz(func(t *testing.T, data []byte) {
		bin, err := binimg.Decode(data)
		if err != nil {
			return
		}
		m, err := cfg.Build(bin, cfg.Options{Resolver: ucse.Resolver(), JumpResolver: ucse.JumpResolver()})
		if err != nil {
			return
		}
		run := func() (*Engine, []taint.Alert) {
			e := New(bin, m, Options{})
			e.lim.totalSteps = steps
			return e, e.Run()
		}
		e1, a1 := run()
		e2, a2 := run()
		if !slices.Equal(a1, a2) || e1.Steps != e2.Steps {
			t.Fatalf("nondeterministic: %d steps %+v, then %d steps %+v", e1.Steps, a1, e2.Steps, a2)
		}
		if e1.Steps > steps {
			t.Fatalf("steps = %d, budget %d", e1.Steps, steps)
		}
	})
}
