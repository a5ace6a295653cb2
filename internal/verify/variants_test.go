package verify

import (
	"context"
	"fmt"
	"testing"

	"fits/internal/loader"
	"fits/internal/synth"
)

// TestAllFetchVariantsVerify checks the verification oracle against every
// code-structural variant of the keyed fetch body the corpus can emit. It
// walks the dataset until it has verified a planted ITS of each of the four
// variants, told apart by the opcode sequence of the function.
func TestAllFetchVariantsVerify(t *testing.T) {
	const variants = 4
	shapes := map[string]bool{}
	for _, spec := range synth.Dataset() {
		if spec.FailureMode != "" {
			continue
		}
		s, err := synth.Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := loader.LoadContext(context.Background(), s.Packed, loader.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, tg := range res.Targets {
			for _, its := range s.Manifest.ITSIn(tg.Bin.Name) {
				f, ok := tg.Model.FuncAt(its.Entry)
				if !ok {
					t.Fatalf("%s: ITS %s not recovered", spec.Product, its.FuncName)
				}
				var shape string
				for _, b := range f.BlocksInOrder() {
					for _, in := range b.Instrs {
						shape += fmt.Sprint(in.Op, " ")
					}
				}
				if shapes[shape] {
					continue
				}
				if o := Candidate(tg.Bin, tg.Model, its.Entry); !o.Verified {
					t.Errorf("%s: ITS %s not verified: %v (returned %q)", spec.Product, its.FuncName, o.Err, o.Returned)
				}
				shapes[shape] = true
			}
		}
		if len(shapes) >= variants {
			break
		}
	}
	if len(shapes) != variants {
		t.Errorf("dataset emitted %d fetch-body shapes, want %d", len(shapes), variants)
	}
}
