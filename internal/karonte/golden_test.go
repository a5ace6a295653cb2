package karonte

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"testing"

	"fits/internal/infer"
	"fits/internal/loader"
	"fits/internal/synth"
)

// karonteGolden is the SHA-256 TestKaronteAlertsGolden pins. Update it only
// for a change that is meant to move Karonte's alerts or step counts, and
// say so in the change.
const karonteGolden = "5d62e851f98262311ce6051579679b7d131c86e194a83463bb764a452a422c23"

// TestKaronteAlertsGolden pins the symbolic engine: one digest over every
// dataset target's alerts, every field included, and consumed Steps under
// five configurations. The last two lower the step budget, the only
// configurations that exhaust it on this corpus: at 3,000 steps every run
// stops before reaching a sink, at 10,000 about half the runs stop after
// reporting some alerts.
func TestKaronteAlertsGolden(t *testing.T) {
	h := sha256.New()
	for i, spec := range synth.Dataset() {
		s, err := synth.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := loader.LoadContext(context.Background(), s.Packed, loader.Options{})
		if errors.Is(err, loader.ErrNoTargets) {
			fmt.Fprintf(h, "image %d: no targets\n", i)
			continue
		}
		if err != nil {
			t.Fatalf("image %d: %v", i, err)
		}
		for _, tgt := range res.Targets {
			var its []uint32
			ranking, err := infer.InferTargetContext(context.Background(), tgt, infer.DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range ranking.Top(3) {
				its = append(its, c.Entry)
			}
			var out map[uint32][]int
			if len(its) > 0 {
				out = map[uint32][]int{its[0]: {0, 1}}
			}
			for j, cfg := range []struct {
				opts  Options
				steps int
			}{
				{Options{}, 0},
				{Options{ITS: its}, 0},
				{Options{ITS: its[:min(2, len(its))], ITSOut: out}, 0},
				{Options{}, 3000},
				{Options{}, 10000},
			} {
				e := New(tgt.Bin, tgt.Model, cfg.opts)
				if cfg.steps > 0 {
					e.lim.totalSteps = cfg.steps
				}
				alerts := e.Run()
				fmt.Fprintf(h, "image %d %s config %d: %d steps, %d alerts\n", i, tgt.Path, j, e.Steps, len(alerts))
				for _, a := range alerts {
					fmt.Fprintf(h, "%+v\n", a)
				}
			}
		}
	}
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != karonteGolden {
		t.Errorf("karonte digest = %s, want %s", got, karonteGolden)
	}
}
