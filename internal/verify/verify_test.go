package verify

import (
	"context"
	"testing"

	"fits/internal/infer"
	"fits/internal/loader"
	"fits/internal/synth"
)

func TestPlantedITSVerifies(t *testing.T) {
	for _, idx := range []int{0, 20, 30, 42} {
		spec := synth.Dataset()[idx]
		s, err := synth.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := loader.LoadContext(context.Background(), s.Packed, loader.Options{})
		if err != nil {
			t.Fatal(err)
		}
		targets := map[string]*loader.Target{}
		for _, tg := range res.Targets {
			targets[tg.Bin.Name] = tg
		}
		for _, its := range s.Manifest.ITS {
			target := targets[its.Binary]
			if target == nil {
				t.Fatalf("no target for binary %q", its.Binary)
			}
			o := Candidate(target.Bin, target.Model, its.Entry)
			if !o.Verified {
				t.Errorf("%s %s: planted ITS %s not verified: %v (returned %q)",
					spec.Vendor, spec.Product, its.FuncName, o.Err, o.Returned)
				continue
			}
			if o.TaintOrigin != "r0" {
				t.Errorf("taint origin = %q, want r0", o.TaintOrigin)
			}
		}
	}
}

func TestNonFetchersRejected(t *testing.T) {
	s, err := synth.Generate(synth.Dataset()[0])
	if err != nil {
		t.Fatal(err)
	}
	res, err := loader.LoadContext(context.Background(), s.Packed, loader.Options{})
	if err != nil {
		t.Fatal(err)
	}
	target := res.Targets[0]
	// Handlers, loggers, parsers: none should verify.
	rejected := 0
	for _, h := range s.Manifest.Handlers {
		if h.Binary != target.Bin.Name {
			continue
		}
		o := Candidate(target.Bin, target.Model, h.Entry)
		if o.Verified {
			t.Errorf("handler %s verified as ITS", h.FuncName)
		} else {
			rejected++
		}
	}
	if rejected == 0 {
		t.Fatal("no handlers tested")
	}
}

func TestVerificationFiltersRankedCandidates(t *testing.T) {
	// The workflow of §4.2: infer, verify the top ranks, keep confirmed
	// fetchers. At least one of the top-3 must verify on a success sample.
	s, err := synth.Generate(synth.Dataset()[0])
	if err != nil {
		t.Fatal(err)
	}
	res, err := loader.LoadContext(context.Background(), s.Packed, loader.Options{})
	if err != nil {
		t.Fatal(err)
	}
	target := res.Targets[0]
	r, err := infer.InferTargetContext(context.Background(), target, infer.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	confirmed := 0
	for _, c := range r.Top(3) {
		if Candidate(target.Bin, target.Model, c.Entry).Verified {
			confirmed++
		}
	}
	if confirmed == 0 {
		t.Error("no top-3 candidate verified dynamically")
	}
}

func TestRejectsStubsAndBadEntries(t *testing.T) {
	s, err := synth.Generate(synth.Dataset()[0])
	if err != nil {
		t.Fatal(err)
	}
	res, err := loader.LoadContext(context.Background(), s.Packed, loader.Options{})
	if err != nil {
		t.Fatal(err)
	}
	target := res.Targets[0]
	if o := Candidate(target.Bin, target.Model, 0xdead); o.Verified || o.Err == nil {
		t.Error("bogus entry should fail")
	}
	for _, f := range target.Model.FuncsInOrder() {
		if f.ImportStub {
			if o := Candidate(target.Bin, target.Model, f.Entry); o.Verified {
				t.Error("stub verified")
			}
			break
		}
	}
}
