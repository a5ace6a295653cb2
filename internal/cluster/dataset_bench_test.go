package cluster_test

import (
	"context"
	"errors"
	"testing"

	"fits/internal/bfv"
	"fits/internal/cluster"
	"fits/internal/infer"
	"fits/internal/loader"
	"fits/internal/synth"
)

// datasetPoints returns, per target of every synth.Dataset() image, the
// custom functions with their base feature vectors: DBSCAN's input in the
// inference stage.
func datasetPoints(b *testing.B) [][]cluster.Point {
	ctx := context.Background()
	cfgn := infer.DefaultConfig()
	var sets [][]cluster.Point
	for i, spec := range synth.Dataset() {
		s, err := synth.Generate(spec)
		if err != nil {
			b.Fatal(err)
		}
		res, err := loader.LoadContext(context.Background(), s.Packed, loader.Options{})
		if errors.Is(err, loader.ErrNoTargets) {
			continue
		}
		if err != nil {
			b.Fatalf("image %d: %v", i, err)
		}
		for _, t := range res.Targets {
			fns, vecs, err := infer.TargetVectors(ctx, t, cfgn)
			if err != nil {
				b.Fatalf("image %d: %v", i, err)
			}
			pts := make([]cluster.Point, len(fns))
			for k, f := range fns {
				pts[k] = cluster.Point{Entry: f.Entry, Vec: vecs[k]}
			}
			sets = append(sets, pts)
		}
	}
	return sets
}

// BenchmarkDBSCAN_Dataset clusters every dataset target's custom functions
// once per iteration and reports how many of those points carry a vector
// not seen before in their target: the share DBSCAN actually compares.
func BenchmarkDBSCAN_Dataset(b *testing.B) {
	sets := datasetPoints(b)
	points, distinct := 0, 0
	for _, pts := range sets {
		seen := make(map[bfv.Vector]bool, len(pts))
		for _, p := range pts {
			seen[p.Vec] = true
		}
		points += len(pts)
		distinct += len(seen)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pts := range sets {
			cluster.DBSCAN(pts, cluster.DefaultParams)
		}
	}
	b.ReportMetric(float64(points), "points/op")
	b.ReportMetric(float64(distinct)/float64(max(points, 1)), "distinct/point")
}
