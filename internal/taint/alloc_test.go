package taint

import (
	"context"
	"testing"

	"fits/internal/loader"
	"fits/internal/synth"
)

// maxRunAllocs bounds the allocations of one CTS+ITS Run over the first
// target of the first dataset image: about 1100 on the shared abstract
// state, most of them the precision passes and per-function bookkeeping.
// A per-block-visit allocation in the taint fixpoint — a map-based state,
// or temporary maps per transfer — takes the same Run past 2800.
const maxRunAllocs = 1400

func TestRunAllocsBounded(t *testing.T) {
	s, err := synth.Generate(synth.Dataset()[0])
	if err != nil {
		t.Fatal(err)
	}
	res, err := loader.LoadContext(context.Background(), s.Packed, loader.Options{})
	if err != nil {
		t.Fatal(err)
	}
	target := res.Targets[0]
	var its []uint32
	for _, it := range s.Manifest.ITSIn(target.Bin.Name) {
		its = append(its, it.Entry)
	}
	opts := Options{UseCTS: true, ITS: its, StringFilter: true}
	if len(New(target.Bin, target.Model, opts).Run()) == 0 {
		t.Fatal("no alerts: the run under measurement exercises nothing")
	}
	got := testing.AllocsPerRun(5, func() { New(target.Bin, target.Model, opts).Run() })
	t.Logf("allocs per Run: %v", got)
	if got > maxRunAllocs {
		t.Errorf("%v allocations per Run, bound %d", got, maxRunAllocs)
	}
}
