package loader

// Fuzz coverage for the firmware entry point: Load must turn arbitrary
// bytes into an error, never a panic, no matter how mangled the container,
// filesystem, or embedded binaries are, and a cache hit must return what the
// miss did. Every load runs the UCSE indirect-call and jump-table resolvers,
// as an analysis does, so mangled code reaches them too. Seeds come from
// real packed images produced by the synthetic firmware generator.

import (
	"testing"

	"fits/internal/modelcache"
	"fits/internal/synth"
)

func FuzzLoad(f *testing.F) {
	specs := synth.Dataset()
	for _, idx := range []int{0, 42} {
		if idx >= len(specs) {
			continue
		}
		s, err := synth.Generate(specs[idx])
		if err != nil {
			f.Fatalf("synth: %v", err)
		}
		f.Add(s.Packed)
		if len(s.Packed) > 256 {
			f.Add(s.Packed[:256]) // header plus a ragged tail
		}
	}
	f.Add([]byte{})
	f.Add([]byte("FWIMG"))
	// One small cache shared across inputs, as a long-running service holds
	// one: every input is loaded twice, so the second load runs the hit path.
	cache := modelcache.New(64, 32<<20)
	f.Fuzz(func(t *testing.T, data []byte) {
		opts := Options{Cache: cache}
		res, err := Load(data, opts)
		if err == nil && res == nil {
			t.Error("Load returned nil result and nil error")
		}
		again, err2 := Load(data, opts)
		if (err == nil) != (err2 == nil) {
			t.Fatalf("first load err = %v, second = %v", err, err2)
		}
		if err != nil {
			return
		}
		if len(again.Targets) != len(res.Targets) {
			t.Fatalf("second load has %d targets, first %d", len(again.Targets), len(res.Targets))
		}
		for i, a := range res.Targets {
			b := again.Targets[i]
			if a.Path != b.Path || a.Hash != b.Hash || len(a.Model.Funcs) != len(b.Model.Funcs) {
				t.Errorf("target %d: second load (%s, %d funcs) differs from first (%s, %d funcs)",
					i, b.Path, len(b.Model.Funcs), a.Path, len(a.Model.Funcs))
			}
		}
	})
}
