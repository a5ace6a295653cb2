package cfg_test

// Allocation guard for reuse alignment: AlignReuse validates every function
// of a new model against its old-version candidates, and its allocations
// must stay with the plan's maps rather than grow a buffer per function.

import (
	"context"
	"testing"

	"fits/internal/cfg"
	"fits/internal/loader"
	"fits/internal/synth"
)

func TestAlignReuseAllocBudget(t *testing.T) {
	c, err := synth.GenerateChain(synth.ChainDataset()[5])
	if err != nil {
		t.Fatal(err)
	}
	var targets [2]*loader.Target
	for i := range targets {
		res, err := loader.LoadContext(context.Background(), c.Versions[i].Packed, loader.Options{})
		if err != nil {
			t.Fatal(err)
		}
		targets[i] = res.Targets[0]
	}
	old, cur := targets[0], targets[1]
	funcs := len(cur.Model.CustomFuncs())
	var reused int
	allocs := testing.AllocsPerRun(10, func() {
		reused = len(cfg.AlignReuse(old.Bin, old.Model, cur.Bin, cur.Model))
	})
	if reused == 0 {
		t.Fatalf("no function of %d paired across a one-constant change", funcs)
	}
	// Observed 41 allocations for 124 functions: the aligner's maps and the
	// ordered function list. A fresh instruction buffer per validated
	// function adds about one allocation per function (156 in all), which
	// this budget of half an allocation per function rejects.
	budget := funcs / 2
	if allocs > float64(budget) {
		t.Errorf("AlignReuse allocated %.0f objects for %d functions, budget %d", allocs, funcs, budget)
	}
	t.Logf("AlignReuse: %.0f allocs for %d functions, %d paired", allocs, funcs, reused)
}
