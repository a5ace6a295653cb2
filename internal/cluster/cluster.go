// Package cluster implements the behavior-clustering stage of the inference
// pipeline: DBSCAN over behavioral feature vectors, class complexity
// calculation per the paper's equation (1), and candidate selection keeping
// only classes more complex than average. It also provides the
// dimensionality-reduction and preprocessing baselines that the paper
// compares against in RQ4.
package cluster

import (
	"math"
	"sort"

	"fits/internal/bfv"
)

// Point is one custom function with its feature vector.
type Point struct {
	Entry uint32
	Vec   bfv.Vector
}

// Params configures DBSCAN.
type Params struct {
	Eps    float64 // neighborhood radius over max-normalized vectors
	MinPts int     // core point density threshold
}

// DefaultParams are the parameters used throughout the evaluation.
var DefaultParams = Params{Eps: 0.35, MinPts: 3}

// Class is one cluster of functions.
type Class struct {
	Members []Point
	// Complexity is filled by Complexities (equation 1).
	Complexity float64
	// Noise marks singleton classes formed from DBSCAN noise points.
	Noise bool
}

// maxNormalize scales every dimension by its maximum over the set, so that
// distance comparisons are not dominated by large-magnitude features.
func maxNormalize(points []Point) [][bfv.Dim]float64 {
	var maxes [bfv.Dim]float64
	for _, p := range points {
		for d := 0; d < bfv.Dim; d++ {
			if v := math.Abs(p.Vec[d]); v > maxes[d] {
				maxes[d] = v
			}
		}
	}
	out := make([][bfv.Dim]float64, len(points))
	for i, p := range points {
		for d := 0; d < bfv.Dim; d++ {
			if maxes[d] > 0 {
				out[i][d] = p.Vec[d] / maxes[d]
			}
		}
	}
	return out
}

// maxSquare returns the largest float64 s with math.Sqrt(s) <= eps, so
// that for every sum of squares s, s <= maxSquare(eps) exactly when
// math.Sqrt(s) <= eps: the correctly rounded square root is monotonic, so
// the sums within eps form the interval [0, maxSquare(eps)]. A negative eps
// admits no sum and a NaN eps none either (every comparison is false).
func maxSquare(eps float64) float64 {
	if !(eps >= 0) {
		return eps
	}
	t := eps * eps
	for math.Sqrt(t) > eps {
		t = math.Nextafter(t, math.Inf(-1))
	}
	for {
		u := math.Nextafter(t, math.Inf(1))
		if u == t || math.Sqrt(u) > eps {
			return t
		}
		t = u
	}
}

// within reports whether the Euclidean distance between a and b is at most
// the eps whose maxSquare is maxSq. The partial sums of squares never
// decrease, so the sum stops as soon as it passes maxSq.
func within(a, b *[bfv.Dim]float64, maxSq float64) bool {
	s := 0.0
	for d := 0; d < bfv.Dim; d++ {
		diff := a[d] - b[d]
		s += diff * diff
		if s > maxSq {
			return false
		}
	}
	return s <= maxSq
}

// DBSCAN clusters points with the classic density-based algorithm. Noise
// points become singleton classes marked Noise so that the complexity filter
// still considers them.
func DBSCAN(points []Point, params Params) []Class {
	if params.MinPts <= 0 {
		params = DefaultParams
	}
	n := len(points)
	norm := maxNormalize(points)

	// neighbors reuses one scratch buffer across queries: each result is
	// consumed before the next query, and a point has at most n neighbors,
	// so the append below never reallocates.
	scratch := make([]int, 0, n)
	maxSq := maxSquare(params.Eps)
	neighbors := func(i int) []int {
		out := scratch[:0]
		for j := 0; j < n; j++ {
			if within(&norm[i], &norm[j], maxSq) {
				out = append(out, j)
			}
		}
		return out
	}

	const (
		unvisited = 0
		noise     = -1
	)
	labels := make([]int, n) // 0 unvisited, -1 noise, >0 cluster id
	// Each point is enqueued at most once over the whole run: it is marked
	// on enqueue, and an expansion skips points already labelled (noise
	// excepted, which becomes a border point). Labels change only at
	// dequeue, so only a point's first dequeue could ever act, and the
	// labels equal those of the classic queue that appends every core
	// neighbour's whole neighbour list, in O(n) queue memory.
	queued := make([]bool, n)
	queue := make([]int, 0, n)
	enqueue := func(nb []int) {
		for _, j := range nb {
			if !queued[j] && labels[j] <= unvisited {
				queued[j] = true
				queue = append(queue, j)
			}
		}
	}
	next := 1
	for i := 0; i < n; i++ {
		if labels[i] != unvisited {
			continue
		}
		nb := neighbors(i)
		if len(nb) < params.MinPts {
			labels[i] = noise
			continue
		}
		id := next
		next++
		labels[i] = id
		queue = queue[:0]
		enqueue(nb)
		for head := 0; head < len(queue); head++ {
			j := queue[head]
			if labels[j] == noise {
				labels[j] = id // border point
				continue
			}
			labels[j] = id
			if jn := neighbors(j); len(jn) >= params.MinPts {
				enqueue(jn)
			}
		}
	}

	// Members per cluster id, in point order, carved from one backing array.
	sizes := make([]int, next)
	nnoise := 0
	for _, l := range labels {
		if l == noise {
			nnoise++
		} else {
			sizes[l]++
		}
	}
	backing := make([]Point, n-nnoise)
	members := make([][]Point, next)
	off := 0
	for id := 1; id < next; id++ {
		members[id] = backing[off : off : off+sizes[id]]
		off += sizes[id]
	}
	noiseClasses := make([]Class, 0, nnoise)
	for i, p := range points {
		if labels[i] == noise {
			noiseClasses = append(noiseClasses, Class{Members: []Point{p}, Noise: true})
			continue
		}
		members[labels[i]] = append(members[labels[i]], p)
	}
	out := make([]Class, 0, next-1+nnoise)
	for id := 1; id < next; id++ {
		ms := members[id]
		sort.Slice(ms, func(a, b int) bool { return ms[a].Entry < ms[b].Entry })
		out = append(out, Class{Members: ms})
	}
	sort.Slice(noiseClasses, func(a, b int) bool {
		return noiseClasses[a].Members[0].Entry < noiseClasses[b].Members[0].Entry
	})
	return append(out, noiseClasses...)
}

// Complexities fills each class's complexity per equation (1): the mean of
// normalized basic-block count, caller count, library-call count and
// anchor-call count over the class members, and returns the average over
// classes.
func Complexities(classes []Class, all []Point) float64 {
	dims := []int{bfv.FBasicBlocks, bfv.FCallers, bfv.FLibCalls, bfv.FAnchorCalls}
	var maxes [bfv.Dim]float64
	for _, p := range all {
		for _, d := range dims {
			if p.Vec[d] > maxes[d] {
				maxes[d] = p.Vec[d]
			}
		}
	}
	total := 0.0
	for i := range classes {
		c := &classes[i]
		sum := 0.0
		for _, p := range c.Members {
			for _, d := range dims {
				if maxes[d] > 0 {
					sum += p.Vec[d] / maxes[d]
				}
			}
		}
		if len(c.Members) > 0 {
			c.Complexity = sum / float64(len(c.Members))
		}
		total += c.Complexity
	}
	if len(classes) == 0 {
		return 0
	}
	return total / float64(len(classes))
}

// Candidates runs the full clustering stage: cluster, compute complexities,
// and keep the members of classes whose complexity exceeds the average.
// The returned entries are sorted.
func Candidates(points []Point, params Params) []uint32 {
	if len(points) == 0 {
		return nil
	}
	classes := DBSCAN(points, params)
	avg := Complexities(classes, points)
	var out []uint32
	for _, c := range classes {
		if c.Complexity > avg {
			for _, p := range c.Members {
				out = append(out, p.Entry)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
