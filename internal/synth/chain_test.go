package synth

import (
	"bytes"
	"testing"
)

func TestChainDatasetGenerates(t *testing.T) {
	for _, spec := range ChainDataset() {
		c, err := GenerateChain(spec)
		if err != nil {
			t.Fatalf("seed %d: %v", spec.Seed, err)
		}
		if len(c.Versions) != len(spec.Steps)+1 {
			t.Fatalf("seed %d: %d versions for %d steps", spec.Seed, len(c.Versions), len(spec.Steps))
		}
		if len(c.Steps) != len(spec.Steps) {
			t.Fatalf("seed %d: %d step records for %d steps", spec.Seed, len(c.Steps), len(spec.Steps))
		}
		for vi, s := range c.Versions {
			if len(s.Packed) == 0 {
				t.Fatalf("seed %d v%d: empty image", spec.Seed, vi)
			}
			if len(s.Manifest.ITS) == 0 {
				t.Fatalf("seed %d v%d: no ITS truth", spec.Seed, vi)
			}
			for _, its := range s.Manifest.ITS {
				if its.Entry == 0 {
					t.Errorf("seed %d v%d: ITS %s entry unresolved", spec.Seed, vi, its.FuncName)
				}
			}
			for _, h := range s.Manifest.Handlers {
				if h.Entry == 0 || h.SinkEntry == 0 {
					t.Errorf("seed %d v%d: handler %s entries unresolved", spec.Seed, vi, h.FuncName)
				}
			}
			bin, err := appBinary(s)
			if err != nil {
				t.Fatalf("seed %d v%d: %v", spec.Seed, vi, err)
			}
			if !bin.Stripped {
				t.Errorf("seed %d v%d: app binary not stripped", spec.Seed, vi)
			}
			lf, ok := s.Image.Lookup("lib/libc.so")
			if !ok {
				t.Fatalf("seed %d v%d: libc missing", spec.Seed, vi)
			}
			l0, _ := c.Versions[0].Image.Lookup("lib/libc.so")
			if !bytes.Equal(lf.Data, l0.Data) {
				t.Errorf("seed %d v%d: libc bytes differ from v0", spec.Seed, vi)
			}
		}
	}
}

func TestChainDeterministic(t *testing.T) {
	spec := ChainDataset()[5] // the combined multi-step chain
	a, err := GenerateChain(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateChain(spec)
	if err != nil {
		t.Fatal(err)
	}
	for vi := range a.Versions {
		if !bytes.Equal(a.Versions[vi].Packed, b.Versions[vi].Packed) {
			t.Errorf("version %d not deterministic", vi)
		}
	}
}

func TestChainStepTruthTransitions(t *testing.T) {
	c, err := GenerateChain(ChainSpec{Seed: 7006, Steps: []ChainStepKind{
		StepTuneConst, StepPatchBug, StepAddFeature, StepRenameExport,
	}})
	if err != nil {
		t.Fatal(err)
	}

	// Step 0 (tune-const): binaries differ, truth identical up to entries.
	if len(c.Steps[0].Appeared)+len(c.Steps[0].Fixed) != 0 {
		t.Error("tune-const step claims churn")
	}
	b0, _ := c.Versions[0].Image.Lookup("bin/httpd")
	b1, _ := c.Versions[1].Image.Lookup("bin/httpd")
	if bytes.Equal(b0.Data, b1.Data) {
		t.Error("tune-const produced an identical binary")
	}

	// Step 1 (patch-bug): exactly one fixed alert, handler reclassified.
	if len(c.Steps[1].Fixed) != 1 || len(c.Steps[1].Appeared) != 0 {
		t.Fatalf("patch-bug churn = %+v", c.Steps[1])
	}
	fixedFn := c.Steps[1].Fixed[0].SinkFuncName
	var before, after *HandlerTruth
	for i := range c.Versions[1].Manifest.Handlers {
		if c.Versions[1].Manifest.Handlers[i].SinkFuncName == fixedFn {
			before = &c.Versions[1].Manifest.Handlers[i]
		}
	}
	for i := range c.Versions[2].Manifest.Handlers {
		if c.Versions[2].Manifest.Handlers[i].SinkFuncName == fixedFn {
			after = &c.Versions[2].Manifest.Handlers[i]
		}
	}
	if before == nil || after == nil {
		t.Fatal("patched handler missing from manifests")
	}
	if before.Category != VulnShallow || after.Category != SafeSanitized {
		t.Errorf("patch transition %v -> %v", before.Category, after.Category)
	}

	// Step 2 (add-feature): new handler appears in the later manifest only.
	if len(c.Steps[2].Appeared) != 1 {
		t.Fatalf("add-feature churn = %+v", c.Steps[2])
	}
	addedFn := c.Steps[2].Appeared[0].SinkFuncName
	if _, ok := handlerTruthByName(&c.Versions[2].Manifest, addedFn); ok {
		t.Error("added handler present before the step")
	}
	h, ok := handlerTruthByName(&c.Versions[3].Manifest, addedFn)
	if !ok {
		t.Fatal("added handler missing after the step")
	}
	if !h.Category.Vulnerable() {
		t.Error("added handler not vulnerable")
	}

	// Step 3 (rename-export): truth follows the new name; the old name is
	// gone; no churn.
	st := c.Steps[3]
	if st.RenamedFrom == "" || st.RenamedTo != st.RenamedFrom+"_v2" {
		t.Fatalf("rename record = %+v", st)
	}
	if len(st.Appeared)+len(st.Fixed) != 0 {
		t.Error("rename step claims churn")
	}
	if _, ok := handlerTruthByName(&c.Versions[4].Manifest, st.RenamedFrom); ok {
		t.Error("old name still in manifest after rename")
	}
	if _, ok := handlerTruthByName(&c.Versions[4].Manifest, st.RenamedTo); !ok {
		t.Error("new name missing from manifest after rename")
	}
	// The renamed function is still a dynamic export under its new name.
	bin, err := appBinary(c.Versions[4])
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, e := range bin.Exports {
		if e.Name == st.RenamedTo {
			found = true
		}
	}
	if !found {
		t.Error("renamed function not exported under new name")
	}
}

func handlerTruthByName(m *Manifest, name string) (HandlerTruth, bool) {
	for _, h := range m.Handlers {
		if h.FuncName == name {
			return h, true
		}
	}
	return HandlerTruth{}, false
}
